// Package sim is the trace-driven simulator (Section 4.2): it applies an
// application event stream to the simulated database through the write
// barrier, activates the collector when the trigger fires, and measures
// what the paper measures — page I/O split between application and
// collector, storage growth, garbage reclaimed, and time-varying series.
package sim

import (
	"fmt"
	"math/rand"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/heap"
	"odbgc/internal/pagebuf"
	"odbgc/internal/remset"
	"odbgc/internal/trace"
)

// Config fixes every simulator policy decision except the one under study
// (partition selection), mirroring Section 4.1.
type Config struct {
	// Policy is the partition selection policy name (see core.Names).
	Policy string
	// PolicyFactory, when non-nil, constructs the run's policy instead of
	// looking Policy up in the registry — the hook for evaluating custom
	// selection policies against the paper's. Policy may then be any
	// descriptive name. Every simulator calls it once, so every run and
	// every shard gets its own instance; it must return a fresh, non-nil
	// policy on each call and be safe to call from concurrent goroutines.
	PolicyFactory func() core.Policy
	// Seed drives the simulator's own randomness (only the Random policy
	// uses it). It is independent of the workload seed.
	Seed int64
	// Heap is the database geometry. Heap.ReserveEmpty is forced to match
	// the policy: NoCollection runs without a reserved empty partition.
	Heap heap.Config
	// BufferPages sizes the LRU I/O buffer; 0 means "equal to one
	// partition", the paper's choice.
	BufferPages int
	// ClientCachePages, when positive, switches to the client/server
	// architecture of the paper's related work (Yong/Naughton/Yu): a
	// client page cache of this size sits in front of the server buffer
	// (BufferPages). AppIOs/GCIOs then count client–server page
	// transfers, and the Disk* result fields count the server's disk
	// operations.
	ClientCachePages int
	// TriggerOverwrites activates the collector every N pointer
	// overwrites (the paper: 150–300).
	TriggerOverwrites int64
	// TriggerAllocationBytes, when positive, replaces the overwrite
	// trigger with the alternative "when to collect" policy from the
	// paper's Table 1: collect every N allocated bytes.
	TriggerAllocationBytes int64
	// SampleEvery records a sample into Result.Samples every N
	// application events (0 disables sampling). Samples power Figures 4
	// and 5.
	SampleEvery int64
	// CollectPartitions is how many partitions one activation collects
	// (the paper's algorithms collect exactly 1; >1 is the multi-partition
	// extension). 0 means 1.
	CollectPartitions int
	// GlobalSweepEvery runs a global marking pass (gc.Collector.GlobalSweep)
	// after every N collections, purging remembered-set entries whose
	// sources are dead so cross-partition cyclic garbage becomes
	// collectable — the paper's Section 6.5 future work. 0 disables it.
	GlobalSweepEvery int
	// WarmStart discards the build phase from the measurement: counters,
	// I/O statistics, high-water marks, and samples restart when the
	// workload's initial forest is complete. The paper measures cold
	// starts and notes they only lessen the differentiation among
	// policies; this option quantifies that remark.
	WarmStart bool
	// Audit wires an external cross-structure invariant auditor into the
	// run (internal/check supplies the full catalog). The zero value is
	// off and adds no cost to the event path beyond one nil check.
	Audit AuditConfig
	// Record wires a structured run recorder into the run
	// (internal/record supplies the batch recorder and on-disk format).
	// The zero value is off and adds no cost to the event path: the hook
	// fires only inside collector activations, never per event.
	Record RecordConfig
}

// AuditConfig configures the invariant audit of a simulation.
type AuditConfig struct {
	// Check is invoked after every collector activation, and at the
	// event cadence below, with the simulator whose live state it should
	// verify; a non-nil error aborts the run (Emit returns it, naming the
	// violated invariant). nil disables auditing.
	Check func(*Sim) error
	// EveryEvents also invokes Check every N application events; 0
	// disables this cadence. Check runs only between events, never
	// inside one.
	EveryEvents int64
}

// DefaultConfig returns the simulator configuration for the paper's
// Tables 2–4: 48-page partitions, buffer equal to a partition, collection
// every 280 overwrites.
func DefaultConfig(policy string) Config {
	return Config{
		Policy:            policy,
		Seed:              1,
		Heap:              heap.DefaultConfig(),
		TriggerOverwrites: 280,
	}
}

func (c Config) validate() error {
	if c.Policy == "" {
		return fmt.Errorf("sim: no policy configured")
	}
	if c.TriggerOverwrites <= 0 && c.TriggerAllocationBytes <= 0 {
		return fmt.Errorf("sim: a positive TriggerOverwrites or TriggerAllocationBytes is required")
	}
	if c.BufferPages < 0 {
		return fmt.Errorf("sim: BufferPages %d negative", c.BufferPages)
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("sim: SampleEvery %d negative", c.SampleEvery)
	}
	if c.CollectPartitions < 0 {
		return fmt.Errorf("sim: CollectPartitions %d negative", c.CollectPartitions)
	}
	if c.GlobalSweepEvery < 0 {
		return fmt.Errorf("sim: GlobalSweepEvery %d negative", c.GlobalSweepEvery)
	}
	if c.ClientCachePages < 0 {
		return fmt.Errorf("sim: ClientCachePages %d negative", c.ClientCachePages)
	}
	if c.Audit.EveryEvents < 0 {
		return fmt.Errorf("sim: Audit.EveryEvents %d negative", c.Audit.EveryEvents)
	}
	return nil
}

// Sim wires the substrates together and consumes a trace. It implements
// trace.Sink, so a workload generator or trace reader can stream into it.
type Sim struct {
	cfg Config

	h      *heap.Heap
	buf    *pagebuf.Buffer // the client cache in client/server mode
	rem    *remset.Table
	pol    core.Policy
	mut    *gc.Mutator
	col    *gc.Collector
	trig   gc.Trigger
	oracle *heap.Oracle

	events                int64
	maxOccupied           int64
	collectionsSinceSweep int
	globalSweeps          int64
	samples               []SampleRecord
	finished              bool

	// auditDue is set by a collector activation and cleared by the audit
	// after its event; untouched when cfg.Audit.Check is nil.
	auditDue bool

	// Measurement window baselines, nonzero after ResetMeasurement.
	occupiedAtReset int64
	allocAtReset    int64
}

// New builds a simulator from cfg.
func New(cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hCfg := cfg.Heap
	hCfg.ReserveEmpty = cfg.Policy != core.NameNoCollection
	h, err := heap.New(hCfg)
	if err != nil {
		return nil, err
	}
	bufPages := cfg.BufferPages
	if bufPages == 0 {
		bufPages = hCfg.PartitionPages
	}
	var buf *pagebuf.Buffer
	if cfg.ClientCachePages > 0 {
		buf, err = pagebuf.NewTiered(cfg.ClientCachePages, bufPages)
	} else {
		buf, err = pagebuf.New(bufPages)
	}
	if err != nil {
		return nil, err
	}
	var pol core.Policy
	if cfg.PolicyFactory != nil {
		if pol = cfg.PolicyFactory(); pol == nil {
			return nil, fmt.Errorf("sim: PolicyFactory returned nil")
		}
	} else {
		pol, err = core.New(cfg.Policy, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, err
		}
	}
	rem := remset.New(h)
	oracle := heap.NewOracle(h)
	env := &core.Env{Heap: h, Oracle: oracle}
	s := &Sim{
		cfg:    cfg,
		h:      h,
		buf:    buf,
		rem:    rem,
		pol:    pol,
		mut:    gc.NewMutator(h, buf, rem, pol),
		col:    gc.NewCollector(h, buf, rem, pol, env),
		trig:   gc.Trigger{Overwrites: cfg.TriggerOverwrites, AllocationBytes: cfg.TriggerAllocationBytes},
		oracle: oracle,
	}
	return s, nil
}

// Heap exposes the simulated database (read-only use intended).
func (s *Sim) Heap() *heap.Heap { return s.h }

// Events reports the number of application events applied.
func (s *Sim) Events() int64 { return s.events }

// Remset exposes the remembered sets (read-only use intended; the audit
// layer reconciles them against the heap).
func (s *Sim) Remset() *remset.Table { return s.rem }

// Buffer exposes the page buffer — the client cache in client/server
// mode, whose Server is the server's buffer.
func (s *Sim) Buffer() *pagebuf.Buffer { return s.buf }

// Oracle exposes the reachability oracle over the simulated heap.
func (s *Sim) Oracle() *heap.Oracle { return s.oracle }

// Config returns the run's configuration.
func (s *Sim) Config() Config { return s.cfg }

// SetExternalRoots forwards an additional evacuation root source to the
// collector (gc.Collector.SetExternalRoots). The sharded engine uses it
// to keep objects referenced from other shards alive.
func (s *Sim) SetExternalRoots(fn func(victim heap.PartitionID, add func(heap.OID))) {
	s.col.SetExternalRoots(fn)
}

// SetOnDiscard forwards a discard observer to the collector
// (gc.Collector.SetOnDiscard). The sharded engine uses it to retract
// remset deltas for a dying object's cross-shard pointers.
func (s *Sim) SetOnDiscard(fn func(oid heap.OID)) { s.col.SetOnDiscard(fn) }

// NoteForeignOverwrite records a pointer overwrite whose previous value
// was a reference outside this simulator's heap — the sharded engine's
// cross-shard references, which are stored as nil locally. The note
// feeds the collection trigger exactly as a local overwrite does, so a
// sharded run's trigger cadence matches what an unsharded simulator
// would see for the same stores.
func (s *Sim) NoteForeignOverwrite() {
	s.mut.NoteForeignOverwrite()
	s.overwrote()
}

// overwrote feeds one pointer overwrite to the collection trigger,
// collecting when it fires.
func (s *Sim) overwrote() {
	if s.trig.RecordOverwrite() {
		s.collect(CauseOverwrite) //odbgc:alloc-ok collection allocates amortized collector state, off the per-event fast path
	}
}

// CollectorStats returns the collector counters for the current
// measurement window.
func (s *Sim) CollectorStats() gc.CollectorStats { return s.col.Stats() }

// CollectorLifetime returns collector counters accumulated since
// construction, unaffected by ResetMeasurement — the baseline for
// byte-conservation audits, which must hold across warm-start resets.
func (s *Sim) CollectorLifetime() gc.CollectorStats { return s.col.Lifetime() }

// MutatorStats returns the mutator counters for the current window.
func (s *Sim) MutatorStats() gc.MutatorStats { return s.mut.Stats() }

// Emit applies one application event, implementing trace.Sink. With
// auditing and sampling off, the steady-state event loop must not
// allocate (pinned by the Emit AllocsPerRun guard in internal/check).
//
// Emit does not run trace.Event.Validate: the trace's write paths
// already did, and every malformed shape it rejects fails here by name
// further down, before any state changes — a nil OID or a bad size or
// field count in the heap's allocation check, a nil OID as the
// mutator's not-resident error, and a negative field in the store's
// range check.
//
//odbgc:hotpath
func (s *Sim) Emit(e trace.Event) error {
	if s.finished {
		return fmt.Errorf("sim: Emit after Finish") //odbgc:alloc-ok cold error path
	}
	switch e.Kind {
	case trace.KindCreate:
		overwrote, err := s.mut.Alloc(e.OID, e.Size, e.NFields, e.Parent, e.ParentField)
		if err != nil {
			return err
		}
		s.trackStorage()
		if overwrote {
			s.overwrote()
		}
		if s.trig.RecordAllocation(e.Size) {
			s.collect(CauseAllocation) //odbgc:alloc-ok collection allocates amortized collector state, off the per-event fast path
		}
	case trace.KindRoot:
		if err := s.mut.Root(e.OID); err != nil {
			return err
		}
	case trace.KindRead:
		if err := s.mut.Read(e.OID); err != nil {
			return err
		}
	case trace.KindWrite:
		overwrote, err := s.mut.Write(e.OID, e.Field, e.Target)
		if err != nil {
			return err
		}
		if overwrote {
			s.overwrote()
		}
	case trace.KindModify:
		if err := s.mut.Modify(e.OID); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sim: event %d: unknown kind %d", s.events, e.Kind) //odbgc:alloc-ok malformed-trace error path
	}
	s.events++
	if s.cfg.SampleEvery > 0 && s.events%s.cfg.SampleEvery == 0 {
		s.sample()
	}
	if s.cfg.Audit.Check != nil {
		return s.auditTick()
	}
	return nil
}

// auditTick fires the configured check when a cadence is due. It runs at
// the end of Emit so the check always observes the quiescent state
// between events, never the middle of one.
func (s *Sim) auditTick() error {
	due := s.auditDue
	s.auditDue = false
	if !due && s.cfg.Audit.EveryEvents > 0 && s.events%s.cfg.Audit.EveryEvents == 0 {
		due = true
	}
	if !due {
		return nil
	}
	return s.Audit() //odbgc:alloc-ok audit failure formats its report
}

// Audit runs the configured invariant check immediately, regardless of
// cadence. Returns nil when no check is configured.
func (s *Sim) Audit() error {
	if s.cfg.Audit.Check == nil {
		return nil
	}
	if err := s.cfg.Audit.Check(s); err != nil {
		return fmt.Errorf("sim: audit after %d events (policy %s, seed %d): %w",
			s.events, s.cfg.Policy, s.cfg.Seed, err)
	}
	return nil
}

// collect runs one collector activation (possibly multi-partition under
// the extension) and resets the trigger. cause is the trigger that
// fired, threaded through to the activation records.
func (s *Sim) collect(cause TriggerCause) {
	n := s.cfg.CollectPartitions
	if n <= 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		var before pagebuf.Stats
		if s.cfg.Record.Activation != nil {
			before = s.buf.Stats()
		}
		res := s.col.Collect()
		if s.cfg.Record.Activation != nil {
			s.recordActivation(cause, res, before)
		}
		if !res.Collected {
			break
		}
		s.collectionsSinceSweep++
	}
	if s.cfg.GlobalSweepEvery > 0 && s.collectionsSinceSweep >= s.cfg.GlobalSweepEvery {
		s.collectionsSinceSweep = 0
		s.col.GlobalSweep()
		s.globalSweeps++
	}
	s.trig.Reset()
	if s.cfg.Audit.Check != nil {
		s.auditDue = true
	}
}

// ResetMeasurement restarts the measurement window at the current
// database state: I/O statistics, mutator and collector counters, event
// count, high-water marks, and samples are cleared; the heap,
// buffer contents, remembered sets, and policy state are untouched.
func (s *Sim) ResetMeasurement() {
	s.buf.ResetStats()
	s.col.ResetStats()
	s.mut.ResetStats()
	s.events = 0
	s.maxOccupied = s.h.OccupiedBytes()
	s.occupiedAtReset = s.h.OccupiedBytes()
	s.allocAtReset = s.h.TotalAllocatedBytes()
	s.samples = nil
}

// trackStorage updates the occupied-bytes high-water mark; occupied bytes
// only grow at allocations, so Emit calls it on creates. The footprint
// needs no mark: partitions are never removed, so its high-water mark is
// its current value.
func (s *Sim) trackStorage() {
	if occ := s.h.OccupiedBytes(); occ > s.maxOccupied {
		s.maxOccupied = occ
	}
}

// sample appends one SampleRecord to the run's samples.
func (s *Sim) sample() {
	bufStats := s.buf.Stats()
	s.samples = append(s.samples, SampleRecord{ //odbgc:alloc-ok amortized sample growth, off the replay fast path
		Seq:                 int64(len(s.samples)) + 1,
		Events:              s.events,
		OccupiedBytes:       s.h.OccupiedBytes(),
		LiveBytes:           s.oracle.LiveBytes(),
		FootprintBytes:      s.h.FootprintBytes(),
		AppIOs:              bufStats.App().IOs(),
		GCIOs:               bufStats.GC().IOs(),
		TotalAllocatedBytes: s.h.TotalAllocatedBytes(),
	})
}

// Result is everything the paper reports about one run.
type Result struct {
	// Policy and Events identify the run.
	Policy string
	Events int64

	// AppIOs, GCIOs, TotalIOs are disk page operations (Table 2).
	AppIOs, GCIOs, TotalIOs int64

	// MaxOccupiedBytes is the storage high-water mark including
	// unreclaimed garbage (Table 3); MaxFootprintBytes additionally counts
	// partition-grain external fragmentation. NumPartitions is the final
	// partition count.
	MaxOccupiedBytes  int64
	MaxFootprintBytes int64
	NumPartitions     int

	// Collections and reclamation totals (Table 4). Declined counts
	// trigger activations where the policy chose not to collect; the
	// trigger-parity audit relies on Collections+Declined being a pure
	// function of the workload.
	Collections      int64
	Declined         int64
	ReclaimedBytes   int64
	ReclaimedObjects int64
	CopiedBytes      int64
	CopiedObjects    int64

	// ActualGarbageBytes is every byte of garbage available during the
	// measurement window: garbage present at its start plus garbage
	// created within it. For the default cold start this is simply
	// allocated minus live-at-end — the paper's "Actual Garbage" row.
	ActualGarbageBytes int64
	// FinalLiveBytes and FinalOccupiedBytes describe the end state.
	FinalLiveBytes     int64
	FinalOccupiedBytes int64

	// TotalAllocatedBytes is cumulative allocation (Figure 6's x-axis).
	TotalAllocatedBytes int64

	// Overwrites is the number of pointer overwrites the application
	// performed.
	Overwrites int64

	// GlobalSweeps counts the global marking passes performed (the
	// cross-partition cycle extension; 0 unless GlobalSweepEvery is set).
	GlobalSweeps int64

	// DiskAppIOs, DiskGCIOs, DiskTotalIOs count the server's disk
	// operations in client/server mode (ClientCachePages > 0), where
	// AppIOs/GCIOs count network page transfers instead. Zero in the
	// paper's single-process mode.
	DiskAppIOs, DiskGCIOs, DiskTotalIOs int64

	// Samples holds the measurement window's samples, one every
	// Config.SampleEvery events; nil when sampling is off.
	Samples []SampleRecord
}

// FractionReclaimed returns reclaimed bytes over actual garbage bytes
// (Table 4's "Fraction of Garbage Reclaimed").
func (r Result) FractionReclaimed() float64 {
	if r.ActualGarbageBytes == 0 {
		return 0
	}
	return float64(r.ReclaimedBytes) / float64(r.ActualGarbageBytes)
}

// EfficiencyKBPerIO returns reclaimed kilobytes per collector I/O
// (Table 4's "Collector Efficiency").
func (r Result) EfficiencyKBPerIO() float64 {
	if r.GCIOs == 0 {
		return 0
	}
	return float64(r.ReclaimedBytes) / 1024 / float64(r.GCIOs)
}

// Finish computes the run's Result. The simulator cannot be used after.
func (s *Sim) Finish() Result {
	s.finished = true
	s.trackStorage()
	bufStats := s.buf.Stats()
	colStats := s.col.Stats()
	live := s.oracle.LiveBytes()
	res := Result{
		Policy:              s.cfg.Policy,
		Events:              s.events,
		AppIOs:              bufStats.App().IOs(),
		GCIOs:               bufStats.GC().IOs(),
		TotalIOs:            bufStats.TotalIOs(),
		MaxOccupiedBytes:    s.maxOccupied,
		MaxFootprintBytes:   s.h.FootprintBytes(),
		NumPartitions:       s.h.NumPartitions(),
		Collections:         colStats.Collections,
		Declined:            colStats.Declined,
		ReclaimedBytes:      colStats.ReclaimedBytes,
		ReclaimedObjects:    colStats.ReclaimedObjects,
		CopiedBytes:         colStats.CopiedBytes,
		CopiedObjects:       colStats.CopiedObjects,
		ActualGarbageBytes:  s.occupiedAtReset + (s.h.TotalAllocatedBytes() - s.allocAtReset) - live,
		FinalLiveBytes:      live,
		FinalOccupiedBytes:  s.h.OccupiedBytes(),
		TotalAllocatedBytes: s.h.TotalAllocatedBytes(),
		Overwrites:          s.mut.Stats().TotalOverwrites,
		GlobalSweeps:        s.globalSweeps,
		Samples:             s.samples,
	}
	if server := s.buf.Server(); server != nil {
		disk := server.Stats()
		res.DiskAppIOs = disk.App().IOs()
		res.DiskGCIOs = disk.GC().IOs()
		res.DiskTotalIOs = disk.TotalIOs()
	}
	return res
}
