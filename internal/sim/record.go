package sim

import (
	"odbgc/internal/gc"
	"odbgc/internal/pagebuf"
)

// Structured run recording: the simulator-side half of internal/record.
// Samples are plain data in Result.Samples; activations need a live
// callback, because a sharded recorder stamps each with the epoch in
// force and perfbench times them as they happen. The hook mirrors
// Config.Audit's zero-cost discipline — the zero value is off, the
// steady-state event loop pays nothing (the hook fires only inside
// collect(), which is already off the per-event hot path), and a non-nil
// hook observes the simulator only between events.

// RecordConfig wires a structured run recorder into a simulation. A nil
// hook disables it. The hook is invoked synchronously on the simulating
// goroutine and must not retain the record past the call unless it
// copies it (the records are plain values, so an append into a batch
// buffer is a copy).
type RecordConfig struct {
	// Activation is invoked once per collector activation — including
	// activations the policy declined — with the per-activation facts the
	// paper's tables are built from.
	Activation func(ActivationRecord)
}

// TriggerCause identifies which "when to collect" policy fired an
// activation (the paper's Table 1: pointer overwrites or allocation
// volume).
type TriggerCause uint8

const (
	// CauseOverwrite is the overwrite trigger (including foreign
	// overwrites noted by the sharded engine).
	CauseOverwrite TriggerCause = iota
	// CauseAllocation is the allocation-volume trigger.
	CauseAllocation
)

// String names the cause the way the record file stores it.
func (c TriggerCause) String() string {
	switch c {
	case CauseOverwrite:
		return "overwrite"
	case CauseAllocation:
		return "allocation"
	default:
		return "unknown"
	}
}

// ActivationRecord is one collector activation: what the policy chose,
// what the evacuation found, and what it cost. All byte/IO fields are
// raw counts; KB/MB scaling is left to the reporting layer so recorded
// runs can be re-aggregated bit-identically.
type ActivationRecord struct {
	// Seq numbers activations within the run from 1; Events is the
	// virtual time (application events applied when the trigger fired).
	Seq    int64
	Events int64
	// Cause is the trigger that fired.
	Cause TriggerCause
	// Collected is false when the policy declined (NoCollection); the
	// partition fields are then -1.
	Collected bool
	// Victim is the partition the policy chose; Dest received the
	// survivors.
	Victim, Dest int64
	// GarbageBytes/Objects is the garbage reclaimed by this activation;
	// CopiedBytes/Objects the survivors evacuated.
	GarbageBytes, GarbageObjects int64
	CopiedBytes, CopiedObjects   int64
	// GCReadIOs/GCWriteIOs are the collector's disk pages read and
	// written during this activation; BufHits/BufMisses its buffer hits
	// and misses (per-activation deltas of the GC actor's counters).
	GCReadIOs, GCWriteIOs int64
	BufHits, BufMisses    int64
	// AppReadIOs/AppWriteIOs are the application's cumulative disk reads
	// and writes at the end of the activation — the app side of the
	// paper's I/O split on the activation's virtual-time axis.
	AppReadIOs, AppWriteIOs int64
	// OccupiedBytes is the database size after the activation.
	OccupiedBytes int64
}

// SampleRecord is one time-series sample: the Figure 4–6 quantities in
// raw bytes plus the cumulative I/O split at the sample instant. KB/MB
// scaling is left to the reporting layer (internal/record).
type SampleRecord struct {
	// Seq numbers samples within the measurement window from 1; Events
	// is the virtual time.
	Seq    int64
	Events int64
	// OccupiedBytes includes unreclaimed garbage (Figure 5); LiveBytes
	// is reachable data; FootprintBytes adds partition-grain external
	// fragmentation. Unreclaimed garbage (Figure 4) is Occupied − Live.
	OccupiedBytes, LiveBytes, FootprintBytes int64
	// AppIOs/GCIOs are cumulative disk operations by actor.
	AppIOs, GCIOs int64
	// TotalAllocatedBytes is cumulative allocation (Figure 6's x-axis).
	TotalAllocatedBytes int64
}

// recordActivation assembles and delivers one ActivationRecord. Only
// called when the Activation hook is non-nil; before is the buffer-stats
// snapshot taken just before the activation.
func (s *Sim) recordActivation(cause TriggerCause, res gc.CollectionResult, before pagebuf.Stats) {
	after := s.buf.Stats()
	lifetime := s.col.Lifetime()
	victim, dest := int64(res.Victim), int64(res.Dest)
	if !res.Collected {
		victim, dest = -1, -1
	}
	s.cfg.Record.Activation(ActivationRecord{
		Seq:            lifetime.Collections + lifetime.Declined,
		Events:         s.events,
		Cause:          cause,
		Collected:      res.Collected,
		Victim:         victim,
		Dest:           dest,
		GarbageBytes:   res.ReclaimedBytes,
		GarbageObjects: res.ReclaimedObjects,
		CopiedBytes:    res.CopiedBytes,
		CopiedObjects:  res.CopiedObjects,
		GCReadIOs:      after.GC().ReadIOs - before.GC().ReadIOs,
		GCWriteIOs:     after.GC().WriteIOs - before.GC().WriteIOs,
		BufHits:        after.GC().Hits - before.GC().Hits,
		BufMisses:      after.GC().Misses - before.GC().Misses,
		AppReadIOs:     after.App().ReadIOs,
		AppWriteIOs:    after.App().WriteIOs,
		OccupiedBytes:  s.h.OccupiedBytes(),
	})
}
