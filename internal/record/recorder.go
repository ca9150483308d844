package record

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"odbgc/internal/segfile"
	"odbgc/internal/sim"
)

// Meta identifies one run within a recording. Label is the scheduler
// job label verbatim; Family/Policy/Point/Seed are its parsed parts, so
// queries can filter without string surgery. Shard is -1 for unsharded
// runs and the shard index for per-shard streams.
type Meta struct {
	Label  string
	Family string
	Policy string
	Point  int64
	Seed   int64
	Shard  int64
}

// MetaFromLabel parses the repo's job-label convention
// ("family/…/seed N", e.g. "tables/Random/seed 3", "fig45/Copied",
// "fig6/8MB/Random/seed 2") into a Meta: family is the first segment,
// a trailing "seed N" sets Seed, and the first numeric or "<N>MB"
// segment after the family sets Point.
func MetaFromLabel(label, policy string) Meta {
	m := Meta{Label: label, Policy: policy, Shard: -1}
	segs := strings.Split(label, "/")
	m.Family = segs[0]
	for _, s := range segs[1:] {
		if rest, ok := strings.CutPrefix(s, "seed "); ok {
			if v, err := strconv.ParseInt(rest, 10, 64); err == nil {
				m.Seed = v
			}
			continue
		}
		if m.Point != 0 {
			continue
		}
		num := strings.TrimSuffix(s, "MB")
		if v, err := strconv.ParseInt(num, 10, 64); err == nil {
			m.Point = v
		}
	}
	return m
}

// Recorder is a batch run recorder: NewRun hands out one Run per
// simulation (numbered in creation order, which the scheduler's record
// factory guarantees is submission order), and WriteTo/WriteFile
// persist every finished run. NewRun is safe for concurrent use; the
// returned Run is not — it belongs to the goroutine driving its
// simulation, which is exactly how the scheduler and the sharded
// engine use it.
type Recorder struct {
	mu   sync.Mutex
	runs []*Run
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewRun registers a new run and returns its recorder. The Run
// implements sim.RunRecorder.
func (r *Recorder) NewRun(m Meta) *Run {
	r.mu.Lock()
	defer r.mu.Unlock()
	run := &Run{id: int64(len(r.runs)), meta: m}
	r.runs = append(r.runs, run)
	return run
}

// Runs reports how many runs have been registered (finished or not).
func (r *Recorder) Runs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.runs)
}

// Run records one simulation: the activation hook appends activation
// rows, and Finish stamps the run's Result, whose Samples become the
// sample rows. A Run whose Finish was never called (its job failed) is
// skipped by WriteTo.
type Run struct {
	id       int64
	meta     Meta
	epoch    int64
	acts     []actRow
	result   sim.Result
	finished bool
}

type actRow struct {
	sim.ActivationRecord
	epoch int64
}

// Hooks returns the simulator-side record hook (sim.RunRecorder).
func (r *Run) Hooks() sim.RecordConfig {
	return sim.RecordConfig{Activation: r.onActivation}
}

func (r *Run) onActivation(a sim.ActivationRecord) {
	r.acts = append(r.acts, actRow{ActivationRecord: a, epoch: r.epoch})
}

// SetEpoch stamps subsequent activation rows with the sharded engine's
// epoch number (rows default to epoch 0 for unsharded runs).
func (r *Run) SetEpoch(e int64) { r.epoch = e }

// Finish stamps the run's Result and marks it complete
// (sim.RunRecorder; the scheduler calls it only on success).
func (r *Run) Finish(res sim.Result) {
	r.result = res
	r.finished = true
}

// interner assigns first-seen dictionary IDs.
type interner struct {
	ids  map[string]int64
	strs []string
}

func (in *interner) id(s string) int64 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := int64(len(in.strs))
	in.ids[s] = id
	in.strs = append(in.strs, s)
	return id
}

// tableBuilder accumulates one table's columns.
type tableBuilder struct {
	kind   segKind
	schema []colSpec
	cols   [][]int64
}

func newTableBuilder(kind segKind, schema []colSpec) *tableBuilder {
	return &tableBuilder{kind: kind, schema: schema, cols: make([][]int64, len(schema))}
}

func (b *tableBuilder) row(vals ...int64) {
	if len(vals) != len(b.schema) {
		panic(fmt.Sprintf("record: %d values for %d-column table", len(vals), len(b.schema)))
	}
	for i, v := range vals {
		b.cols[i] = append(b.cols[i], v)
	}
}

func (b *tableBuilder) rows() int {
	if len(b.cols) == 0 {
		return 0
	}
	return len(b.cols[0])
}

// writeSegments splits the table into maxSegRows segments. A table
// with zero rows writes nothing.
func (b *tableBuilder) writeSegments(write func(segKind, int, []byte) error) error {
	for lo := 0; lo < b.rows(); lo += maxSegRows {
		hi := min(lo+maxSegRows, b.rows())
		var payload []byte
		for _, col := range b.cols {
			for _, v := range col[lo:hi] {
				payload = appendZigzag(payload, v)
			}
		}
		if err := write(b.kind, hi-lo, payload); err != nil {
			return err
		}
	}
	return nil
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// WriteTo persists every finished run (io.WriterTo). Unfinished runs —
// jobs that failed, or runs still in flight — are skipped, so a partial
// suite still yields a readable file of its completed runs.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	in := &interner{ids: make(map[string]int64)}
	runs := newTableBuilder(kindRuns, runsSchema)
	acts := newTableBuilder(kindActivations, activationsSchema)
	samps := newTableBuilder(kindSamples, samplesSchema)
	for _, run := range r.runs {
		if !run.finished {
			continue
		}
		m, res := run.meta, run.result
		runs.row(run.id, m.Shard,
			in.id(m.Label), in.id(m.Family), in.id(m.Policy),
			m.Point, m.Seed, res.Events,
			res.AppIOs, res.GCIOs, res.TotalIOs,
			res.MaxOccupiedBytes, res.MaxFootprintBytes,
			int64(res.NumPartitions),
			res.Collections, res.Declined,
			res.ReclaimedBytes, res.ReclaimedObjects,
			res.CopiedBytes, res.CopiedObjects,
			res.ActualGarbageBytes,
			res.FinalLiveBytes, res.FinalOccupiedBytes,
			res.TotalAllocatedBytes, res.Overwrites)
		for _, a := range run.acts {
			acts.row(run.id, m.Shard, a.Seq, a.Events, a.epoch,
				in.id(a.Cause.String()), b2i(a.Collected),
				a.Victim, a.Dest,
				a.GarbageBytes, a.GarbageObjects,
				a.CopiedBytes, a.CopiedObjects,
				a.GCReadIOs, a.GCWriteIOs,
				a.BufHits, a.BufMisses,
				a.AppReadIOs, a.AppWriteIOs,
				a.OccupiedBytes)
		}
		// Sampled runs are unsharded (shard.Config rejects sampling),
		// so every sample row is in epoch 0.
		for _, s := range res.Samples {
			samps.row(run.id, m.Shard, s.Seq, s.Events, 0,
				s.OccupiedBytes, s.LiveBytes, s.FootprintBytes,
				s.AppIOs, s.GCIOs,
				s.TotalAllocatedBytes)
		}
	}

	sw := segfile.NewWriter(w, &fileFormat)
	var index []indexEntry
	write := func(kind segKind, rows int, payload []byte) error {
		off, err := sw.Write(uint32(rows), uint64(kind), payload)
		index = append(index, indexEntry{kind: kind, offset: off, rows: rows})
		return err
	}
	for lo := 0; lo < len(in.strs); lo += maxSegRows {
		hi := min(lo+maxSegRows, len(in.strs))
		var payload []byte
		for _, s := range in.strs[lo:hi] {
			payload = binary.AppendUvarint(payload, uint64(len(s)))
			payload = append(payload, s...)
		}
		if err := write(kindDict, hi-lo, payload); err != nil {
			return sw.Offset(), err
		}
	}
	for _, tb := range []*tableBuilder{runs, acts, samps} {
		if err := tb.writeSegments(write); err != nil {
			return sw.Offset(), err
		}
	}

	// The index lists every segment before it; the trailer pins the
	// index's own offset.
	payload := binary.AppendUvarint(nil, uint64(len(index)))
	for _, e := range index {
		payload = binary.AppendUvarint(payload, uint64(e.kind))
		payload = binary.AppendUvarint(payload, uint64(e.offset))
		payload = binary.AppendUvarint(payload, uint64(e.rows))
	}
	indexOff, err := sw.Write(uint32(len(index)), uint64(kindIndex), payload)
	if err != nil {
		return sw.Offset(), err
	}
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(indexOff))
	copy(trailer[8:], trailerMagic[:])
	n, err := w.Write(trailer[:])
	return sw.Offset() + int64(n), err
}

// WriteFile persists the recording to path.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := r.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("record: write %s: %w", path, err)
	}
	return f.Close()
}
