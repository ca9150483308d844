package shard

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"odbgc/internal/heap"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
)

// packLoc packs a local source OID and field index into one map key,
// mirroring the remembered sets' packed pointer locations.
func packLoc(src uint32, field int) uint64 { return uint64(src)<<16 | uint64(field) }

// foreignRef is the true value of a local pointer location whose target
// lives on another shard (the location itself holds nil locally).
type foreignRef struct {
	shard  uint8
	target uint32
}

// delta is one remembered-set exchange operation: add (or remove) one
// external reference to a local object of the receiving shard.
type delta struct {
	target uint32
	remove bool
}

// shardRunner is one shard's live state: a private simulator plus the
// cross-shard reference bookkeeping on both sides (pointers held out of
// this shard, references held into it). Both sides' counts are columns
// indexed by the shard heap's slots, as the heap keeps its own per-object
// records: slots are stable across evacuations, and a discarded object's
// entries are zero when its slot is reused. A column grows only when
// cross-shard traffic first reaches a slot past its end, and reads as 0
// there.
type shardRunner struct {
	id  int
	sim *sim.Sim
	h   *heap.Heap // sim's heap

	// rec is this shard's run recorder (nil when recording is off);
	// setEpoch is its epoch-stamping hook, bound once at construction so
	// the per-batch call allocates nothing.
	rec      sim.RunRecorder
	setEpoch func(int64)

	// fout maps a packed local pointer location (source OID, field) to
	// the cross-shard reference it holds; foutCount[s] counts the entries
	// of the resident source in slot s, so writes and discards probe fout
	// only for a source holding one.
	fout      map[uint64]foreignRef
	foutCount []int32
	// xin[s] counts the live cross-shard references to the resident
	// object in slot s; a positive count makes it an extra collection
	// root (externalRoots). late counts, by local OID, the references
	// whose add delta arrived after the exchange found its target already
	// reclaimed: OIDs are never reused, so the matching remove finds the
	// entry there.
	xin  []int32
	late map[heap.OID]int32
	// roots is externalRoots' scratch: the victim's externally
	// referenced residents.
	roots []heap.Slot

	// out accumulates the current epoch's outgoing deltas per target
	// shard, in generation order; the exchange applies and clears them.
	out [][]delta
	// drift is the first foreign out-count mismatch onDiscard found; the
	// collector's discard hook cannot return it, so drain does.
	drift error

	busyNs        int64
	foreignWrites int64
	deltasSent    int64
	deltasRecv    int64
	msgsSent      int64
}

// count returns col's entry for slot s, 0 past the column's end.
func count(col []int32, s heap.Slot) int32 {
	if int(s) < len(col) {
		return col[s]
	}
	return 0
}

// cover returns col extended with zeros to cover slot s.
func cover(col []int32, s heap.Slot) []int32 {
	if int(s) < len(col) {
		return col
	}
	return append(col, make([]int32, int(s)+1-len(col))...) //odbgc:alloc-ok amortized column growth, only when cross-shard traffic first reaches a slot
}

// Engine runs one sharded simulation. Build one with New, run it once
// with Run, then inspect per-shard state through the accessors.
type Engine struct {
	cfg         Config
	epochEvents int64
	parallel    bool
	router      *Router
	runners     []*shardRunner
	ran         bool

	// errs holds each shard's drain error; any one fails the run. wg
	// counts the drains running on their own goroutines.
	errs []error
	wg   sync.WaitGroup
}

// New builds an engine from cfg: a router over the configured shard
// count and one private simulator per shard, each seeded with the base
// seed offset by its shard index.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	router, err := NewRouter(cfg.Shards, cfg.Assignment, cfg.RangeBlock)
	if err != nil {
		return nil, err
	}
	epochEvents := cfg.EpochEvents
	if epochEvents <= 0 {
		epochEvents = DefaultEpochEvents
	}
	e := &Engine{
		cfg:         cfg,
		epochEvents: epochEvents,
		parallel:    cfg.Parallel && cfg.Shards > 1,
		router:      router,
		errs:        make([]error, cfg.Shards),
	}
	for i := 0; i < cfg.Shards; i++ {
		sc := cfg.Sim
		sc.Seed = cfg.Sim.Seed + int64(i)
		var rec sim.RunRecorder
		var setEpoch func(int64)
		sc.Record = sim.RecordConfig{}
		if cfg.Record != nil {
			if rec = cfg.Record(i); rec != nil {
				sc.Record = rec.Hooks()
				if es, ok := rec.(interface{ SetEpoch(int64) }); ok {
					setEpoch = es.SetEpoch
				}
			}
		}
		s, err := sim.New(sc)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r := &shardRunner{
			id:       i,
			sim:      s,
			h:        s.Heap(),
			rec:      rec,
			setEpoch: setEpoch,
			fout:     make(map[uint64]foreignRef),
			late:     make(map[heap.OID]int32),
			out:      make([][]delta, cfg.Shards),
		}
		s.SetExternalRoots(r.externalRoots)
		s.SetOnDiscard(r.onDiscard)
		e.runners = append(e.runners, r)
	}
	return e, nil
}

// Router exposes the engine's partition-space → shard mapping.
func (e *Engine) Router() *Router { return e.router }

// Sim exposes shard i's simulator for post-run inspection (the engine's
// Run already called Finish on it).
func (e *Engine) Sim(i int) *sim.Sim { return e.runners[i].sim }

// ExternalRefs calls fn for each of shard i's externally referenced
// local objects with its reference count, in ascending OID order: the
// resident objects with a positive count, and the reclaimed ones whose
// late add deltas no remove has retracted yet.
func (e *Engine) ExternalRefs(i int, fn func(local heap.OID, refs int)) {
	r := e.runners[i]
	type ref struct {
		oid heap.OID
		n   int32
	}
	refs := make([]ref, 0, len(r.late))
	for s, n := range r.xin {
		if n > 0 {
			refs = append(refs, ref{r.h.OID(heap.Slot(s)), n})
		}
	}
	for oid, n := range r.late {
		refs = append(refs, ref{oid, n})
	}
	slices.SortFunc(refs, func(a, b ref) int { return cmp.Compare(a.oid, b.oid) })
	for _, x := range refs {
		fn(x.oid, int(x.n))
	}
}

// CheckExternalRefs checks the cross-shard invariant between epochs:
// each shard's external reference counts (ExternalRefs) equal, object by
// object, the references the other shards' foreign-out tables hold into
// it. The error names the receiving shard and local OID of the first
// mismatch, in shard then OID order. Run leaves the engine after its
// final exchange, where the invariant must hold.
func (e *Engine) CheckExternalRefs() error {
	want := make([]map[heap.OID]int, len(e.runners))
	for i := range want {
		want[i] = make(map[heap.OID]int)
	}
	for _, r := range e.runners {
		for _, ref := range r.fout {
			want[ref.shard][heap.OID(ref.target)]++
		}
	}
	for i := range e.runners {
		oids := make([]heap.OID, 0, len(want[i]))
		for oid := range want[i] {
			oids = append(oids, oid)
		}
		got := make(map[heap.OID]int)
		e.ExternalRefs(i, func(local heap.OID, refs int) {
			got[local] = refs
			if _, ok := want[i][local]; !ok {
				oids = append(oids, local)
			}
		})
		slices.Sort(oids)
		for _, oid := range oids {
			if got[oid] != want[i][oid] {
				return fmt.Errorf("shard %d: local OID %d has %d external references, the other shards' foreign-out tables hold %d",
					i, oid, got[oid], want[i][oid])
			}
		}
	}
	return nil
}

// ForeignRefs calls fn for each cross-shard pointer shard i holds:
// source local OID and field, target shard and target local OID, in
// source-then-field order.
func (e *Engine) ForeignRefs(i int, fn func(src heap.OID, field int, shard int, target heap.OID)) {
	r := e.runners[i]
	keys := make([]uint64, 0, len(r.fout))
	for k := range r.fout {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		ref := r.fout[k]
		fn(heap.OID(k>>16), int(k&(1<<16-1)), int(ref.shard), heap.OID(ref.target))
	}
}

// Run replays one trace through the engine: replay must stream every
// event of the trace into the sink it is handed (a ChunkStream.Replay
// method value, a Buffer replay closure, ...) and return. Run consumes
// the engine; it may be called once.
//
// Both modes run the same epoch loop. Each shard drains its batch of the
// epoch — on its own goroutine when Config.Parallel is set, in shard
// order on the caller's otherwise — and the caller waits for every
// drain. Then one exchange on the caller's goroutine applies the
// epoch's deltas in (receiver, sender) order, before the next epoch's
// drains start. The modes differ only in where the drains run, so their
// results are identical. In parallel mode the demuxer fills a second
// batch set while the current epoch drains.
func (e *Engine) Run(replay func(trace.Sink) error) (Result, error) {
	if e.ran {
		return Result{}, fmt.Errorf("shard: engine already ran")
	}
	e.ran = true
	var spare []*Batch
	if e.parallel {
		spare = newBatches(len(e.runners))
	}
	d := NewDemuxer(e.router, e.epochEvents, func(batches []*Batch, final bool) ([]*Batch, error) {
		// Finish the previous epoch, whose drains may still be running.
		if err := e.join(); err != nil {
			return nil, err
		}
		e.fork(batches)
		if !e.parallel || final {
			return batches, e.join()
		}
		spare, batches = batches, spare
		return batches, nil
	})
	err := replay(d)
	if err == nil {
		err = d.Flush()
	}
	if err != nil {
		e.wg.Wait() // no drain outlives Run
		return Result{}, err
	}
	return e.finish(d), nil
}

// fork starts one epoch's drains: each shard's on its own goroutine in
// parallel mode, all of them in shard order on the caller's goroutine
// otherwise.
func (e *Engine) fork(batches []*Batch) {
	for i, r := range e.runners {
		if !e.parallel {
			e.errs[i] = r.drain(batches[i])
			continue
		}
		e.wg.Add(1)
		go func(b *Batch) {
			defer e.wg.Done()
			e.errs[i] = r.drain(b)
		}(batches[i])
	}
}

// join waits for the drains in flight, then exchanges their deltas. A
// failed drain fails the run with the lowest-numbered shard's error.
func (e *Engine) join() error {
	e.wg.Wait()
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return e.exchange()
}

// exchange applies the epoch's deltas in (receiver, sender) order — the
// fixed order that makes the result independent of how the drains were
// scheduled — and clears every outgoing buffer for the next epoch.
func (e *Engine) exchange() error {
	for _, recv := range e.runners {
		for from, send := range e.runners {
			ds := send.out[recv.id]
			if from == recv.id || len(ds) == 0 {
				continue
			}
			send.msgsSent++
			if err := recv.applyDeltas(from, ds); err != nil {
				return err
			}
		}
	}
	for _, r := range e.runners {
		for t := range r.out {
			r.out[t] = r.out[t][:0]
		}
	}
	return nil
}

// drain applies one epoch batch and times it for the busy-time metric.
// Every failure inside it — an error from the batch, a foreign out-count
// drift onDiscard recorded, or a panic in the shard's simulator or
// policy — comes back as an error that names the shard.
func (r *shardRunner) drain(b *Batch) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("shard %d: panic: %v\n%s", r.id, p, debug.Stack())
		}
	}()
	t0 := time.Now() //odbgc:nondet-ok wall-clock feeds only the busy-time perf metric, never simulation results
	err = r.drainBatch(b)
	r.busyNs += int64(time.Since(t0)) //odbgc:nondet-ok wall-clock feeds only the busy-time perf metric, never simulation results
	if r.drift != nil {
		err = r.drift
	}
	if err != nil {
		return fmt.Errorf("shard %d: %w", r.id, err)
	}
	return nil
}

// drainBatch applies one epoch batch to the shard's simulator,
// interposing the cross-shard half of the write barrier on the pointer
// stores that need it: a write carrying a foreign mark, and a write or
// creating store whose source holds a foreign reference (a positive
// foutCount). This is the shard-local phase: the loop drain times for
// the busy counters, and the zero-alloc fast path the AllocsPerRun guard
// and hotcall pin — a store from a source holding no foreign reference
// pays one OID lookup and one column read over a plain replay.
//
//odbgc:hotpath
func (r *shardRunner) drainBatch(b *Batch) error {
	if r.setEpoch != nil {
		r.setEpoch(b.Epoch)
	}
	fi := 0
	for i := range b.Events {
		e := b.Events[i]
		switch e.Kind {
		case trace.KindWrite:
			var fw *ForeignWrite
			if fi < len(b.Foreign) && int(b.Foreign[fi].Pos) == i {
				fw = &b.Foreign[fi]
				fi++
			}
			if src := r.h.Lookup(e.OID); fw != nil || count(r.foutCount, src) > 0 {
				overwrote, err := r.foreignBarrier(e.OID, src, e.Field, fw)
				if err != nil {
					return err
				}
				if err := r.sim.Emit(e); err != nil {
					return err
				}
				if overwrote {
					r.sim.NoteForeignOverwrite()
				}
				continue
			}
		case trace.KindCreate:
			// The creating store parent.ParentField = child can overwrite a
			// foreign reference just like an explicit write.
			if src := r.h.Lookup(e.Parent); count(r.foutCount, src) > 0 {
				overwrote, err := r.foreignBarrier(e.Parent, src, e.ParentField, nil)
				if err != nil {
					return err
				}
				if err := r.sim.Emit(e); err != nil {
					return err
				}
				if overwrote {
					r.sim.NoteForeignOverwrite()
				}
				continue
			}
		case trace.KindRoot, trace.KindRead, trace.KindModify:
			// No pointer store, so nothing can displace a foreign
			// reference; these take the plain emit below.
		}
		if err := r.sim.Emit(e); err != nil {
			return err
		}
	}
	return nil
}

// foreignBarrier is the cross-shard half of the write barrier for the
// store src.field = <new value>, src resident in slot s: it retracts the
// reference the stored-into location previously held (enqueueing a
// remove delta for the old target's shard) and records the new one (an
// add delta; fw nil means the new value is local or nil). It runs before
// the store reaches the simulator, so a collection the store triggers
// observes current foreign bookkeeping — if the source dies in that
// collection, the discard hook below retracts the entry just made, and
// the target shard sees add then remove in order. A source that is not
// resident records nothing: the simulator rejects its store by name. The
// returned flag reports an overwrite of a foreign reference, which the
// local barrier cannot see (the location holds nil locally) and the
// caller must feed to the trigger.
func (r *shardRunner) foreignBarrier(src heap.OID, s heap.Slot, field int, fw *ForeignWrite) (bool, error) {
	if field < 0 || field >= 1<<16 {
		return false, fmt.Errorf("write field %d outside the packed location range", field) //odbgc:alloc-ok malformed-trace error path
	}
	if s == heap.NilSlot {
		return false, nil
	}
	key := packLoc(uint32(src), field)
	overwrote := false
	if count(r.foutCount, s) > 0 {
		if old, ok := r.fout[key]; ok {
			delete(r.fout, key)
			r.foutCount[s]--
			r.enqueue(int(old.shard), delta{target: old.target, remove: true})
			overwrote = true
		}
	}
	if fw != nil {
		r.fout[key] = foreignRef{shard: fw.Shard, target: fw.Target}
		r.foutCount = cover(r.foutCount, s)
		r.foutCount[s]++
		r.enqueue(int(fw.Shard), delta{target: fw.Target})
		r.foreignWrites++
	}
	return overwrote, nil
}

// enqueue appends one delta to the epoch's outgoing buffer for a shard.
func (r *shardRunner) enqueue(to int, d delta) {
	r.out[to] = append(r.out[to], d) //odbgc:alloc-ok amortized delta-buffer growth, reused across epochs
	r.deltasSent++
}

// applyDeltas folds one sender's deltas into the external reference
// counts: a resident target's count is its xin entry, and a target
// reclaimed before its add delta arrived is counted in late (see
// externalRoots). Counts never go negative: every remove retracts a
// previously delivered add, because a location's add precedes its remove
// at the sender and the exchange applies each sender's deltas in order;
// a target counted in xin stays resident until its count is 0, and one
// counted in late never becomes resident again.
func (r *shardRunner) applyDeltas(from int, ds []delta) error {
	for _, d := range ds {
		r.deltasRecv++
		s := r.h.Lookup(heap.OID(d.target))
		switch {
		case s == heap.NilSlot && d.remove:
			switch n := r.late[heap.OID(d.target)] - 1; {
			case n < 0:
				return r.underflow(from, d)
			case n == 0:
				delete(r.late, heap.OID(d.target))
			default:
				r.late[heap.OID(d.target)] = n
			}
		case s == heap.NilSlot:
			r.late[heap.OID(d.target)]++
		case d.remove:
			if count(r.xin, s) == 0 {
				return r.underflow(from, d)
			}
			r.xin[s]--
		default:
			r.xin = cover(r.xin, s)
			r.xin[s]++
		}
	}
	return nil
}

// underflow names a remove delta that retracts no delivered add.
func (r *shardRunner) underflow(from int, d delta) error {
	return fmt.Errorf("shard %d: external refcount underflow on local OID %d (remove from shard %d)", r.id, d.target, from)
}

// externalRoots feeds the collector the victim's residents that other
// shards reference, in ascending OID order (sim.SetExternalRoots): it
// scans the victim's resident list for a positive xin count, so its cost
// is bounded by the victim, not by the shard's external references. A
// reference roots its target only from the exchange that ends the epoch
// it was stored in, so a target whose last local path dies before that
// exchange can be reclaimed while another shard still references it;
// applyDeltas then counts the reference in late, where no collection
// looks. At perfbench sharded-cross's shape 3,936 of 149,316 add deltas
// arrived after their target was reclaimed, and 265 such counts were
// left at the end of the run (DESIGN.md, "What sharding deliberately
// changes").
func (r *shardRunner) externalRoots(victim heap.PartitionID, add func(heap.Slot)) {
	if len(r.xin) == 0 {
		return
	}
	roots := r.roots[:0]
	for _, s := range r.h.Partition(victim).Slots() {
		if count(r.xin, s) > 0 {
			roots = append(roots, s)
		}
	}
	r.h.SortByOID(roots)
	for _, s := range roots {
		add(s)
	}
	r.roots = roots
}

// onDiscard retracts the cross-shard references of the dying object in
// slot s while its fields are still intact (sim.SetOnDiscard), so the
// target shards stop treating the referents as externally rooted. It
// probes fout only when the object's foutCount is positive, and zeroes
// that count, so the slot's next object starts with none; its xin count
// is already 0, since externalRoots keeps every externally referenced
// object alive. A count that does not match the object's fout entries is
// a bookkeeping bug; the first one is kept for drain to return.
func (r *shardRunner) onDiscard(s heap.Slot) {
	n := count(r.foutCount, s)
	if n == 0 {
		return
	}
	r.foutCount[s] = 0
	src := uint32(r.h.OID(s))
	for f := range r.h.NumFields(s) {
		key := packLoc(src, f)
		if ref, ok := r.fout[key]; ok {
			delete(r.fout, key)
			r.enqueue(int(ref.shard), delta{target: ref.target, remove: true})
			n--
		}
	}
	if n != 0 && r.drift == nil {
		r.drift = fmt.Errorf("foreign out-count drift for local OID %d (%d unmatched)", src, n)
	}
}

// externalRefs counts the local objects other shards reference.
func (r *shardRunner) externalRefs() int {
	n := len(r.late)
	for _, c := range r.xin {
		if c > 0 {
			n++
		}
	}
	return n
}

// finish assembles the run's Result, finishing every shard simulator.
func (e *Engine) finish(d *Demuxer) Result {
	res := Result{
		Shards:      e.cfg.Shards,
		Assignment:  e.cfg.Assignment,
		Parallel:    e.parallel,
		EpochEvents: e.epochEvents,
		Epochs:      d.Epoch() + 1,
		Events:      d.Events(),
		Trees:       e.router.Trees(),
	}
	for _, r := range e.runners {
		sr := ShardResult{
			Shard:              r.id,
			Events:             r.sim.Events(),
			Result:             r.sim.Finish(),
			GarbageByPartition: slices.Clone(r.sim.Oracle().GarbageByPartition()),
			BusyNs:             r.busyNs,
			ForeignWrites:      r.foreignWrites,
			DeltasSent:         r.deltasSent,
			DeltasReceived:     r.deltasRecv,
			MessagesSent:       r.msgsSent,
			ExternalRefs:       r.externalRefs(),
		}
		if r.rec != nil {
			r.rec.Finish(sr.Result)
		}
		res.PerShard = append(res.PerShard, sr)
		res.AppIOs += sr.Result.AppIOs
		res.GCIOs += sr.Result.GCIOs
		res.TotalIOs += sr.Result.TotalIOs
		res.Collections += sr.Result.Collections
		res.Declined += sr.Result.Declined
		res.ReclaimedBytes += sr.Result.ReclaimedBytes
		res.TotalAllocatedBytes += sr.Result.TotalAllocatedBytes
		res.ForeignWrites += sr.ForeignWrites
		res.DeltasExchanged += sr.DeltasSent
		res.MessagesSent += sr.MessagesSent
		res.BusyNsTotal += sr.BusyNs
		if sr.BusyNs > res.BusyNsMax {
			res.BusyNsMax = sr.BusyNs
		}
		if sr.Events > res.MaxShardEvents {
			res.MaxShardEvents = sr.Events
		}
	}
	if res.Events > 0 {
		res.Imbalance = float64(res.MaxShardEvents) * float64(res.Shards) / float64(res.Events)
	}
	return res
}

// ShardResult is one shard's outcome.
type ShardResult struct {
	// Shard identifies the shard; Events is how many events it applied.
	Shard  int
	Events int64
	// Result is the shard simulator's standard result.
	Result sim.Result
	// GarbageByPartition is the shard heap's final per-partition garbage
	// bytes — part of what the selfcheck compares bit-for-bit across
	// engine modes.
	GarbageByPartition []int64
	// BusyNs is wall time spent inside the shard-local apply loop.
	BusyNs int64
	// ForeignWrites counts writes whose target lives on another shard;
	// DeltasSent/DeltasReceived count the exchange volume they generated,
	// and MessagesSent the epochs' non-empty (sender, receiver) delta
	// batches.
	ForeignWrites  int64
	DeltasSent     int64
	DeltasReceived int64
	MessagesSent   int64
	// ExternalRefs is the final number of distinct local objects other
	// shards hold references to.
	ExternalRefs int
}

// Result aggregates one sharded run.
type Result struct {
	// Shards, Assignment, Parallel, EpochEvents echo the configuration;
	// Epochs, Events, Trees describe the demultiplexed trace.
	Shards      int
	Assignment  Assignment
	Parallel    bool
	EpochEvents int64
	Epochs      int64
	Events      int64
	Trees       int64
	// PerShard holds each shard's outcome, indexed by shard.
	PerShard []ShardResult

	// Sums over shards of the corresponding per-shard counters.
	AppIOs, GCIOs, TotalIOs int64
	Collections, Declined   int64
	ReclaimedBytes          int64
	TotalAllocatedBytes     int64
	ForeignWrites           int64
	DeltasExchanged         int64
	MessagesSent            int64

	// MaxShardEvents and Imbalance describe the demux skew: Imbalance is
	// MaxShardEvents·Shards/Events, 1.0 for a perfect split.
	MaxShardEvents int64
	Imbalance      float64
	// BusyNsTotal and BusyNsMax decompose the shard-local phase:
	// BusyNsMax is the critical path a perfectly parallel machine would
	// pay, BusyNsTotal the serial work, and their ratio the shard-local
	// scaling. Both sum wall time around drains, so they measure the
	// work only when every drain has a CPU to itself: in parallel mode
	// on fewer CPUs than shards, a drain's span also counts the time it
	// waited for one.
	BusyNsTotal, BusyNsMax int64
}
