package shard

import (
	"fmt"

	"odbgc/internal/heap"
	"odbgc/internal/trace"
)

// ForeignWrite marks one write event of a batch whose original target
// lives on another shard. The event itself carries a nil target (the
// owning shard's heap cannot store a foreign OID); the mark carries the
// truth. Marks are naturally ordered by position.
type ForeignWrite struct {
	// Pos indexes the write in Batch.Events.
	Pos int32
	// Shard is the target's owning shard.
	Shard uint8
	// Target is the target's OID in that shard's local space.
	Target uint32
}

// Batch is one shard's slice of one epoch: the shard's events in trace
// order, rewritten into its local OID space, plus the foreign-write
// sidecar. Batches are recycled; the engine returns drained batches to
// the demuxer for refilling.
type Batch struct {
	// Epoch numbers the global epoch this batch belongs to, from 0.
	Epoch int64
	// Events holds the shard's events of the epoch (possibly none).
	Events []trace.Event
	// Foreign marks the events whose true target is on another shard.
	Foreign []ForeignWrite
}

func (b *Batch) reset(epoch int64) {
	b.Epoch = epoch
	b.Events = b.Events[:0]
	b.Foreign = b.Foreign[:0]
}

// newBatches returns one empty batch per shard.
func newBatches(shards int) []*Batch {
	batches := make([]*Batch, shards)
	for i := range batches {
		batches[i] = new(Batch)
	}
	return batches
}

// Demuxer splits a global event stream into per-shard, per-epoch
// batches. It implements trace.Sink, so it slots directly into the
// chunked trace's prefetch pipeline (trace.ChunkStream.Replay) — the
// demux is a single pass over the stream, and resident memory is the
// pipeline's chunks plus the batches in flight: O(chunks × shards).
//
// Every Config.EpochEvents global events, the current batches — one per
// shard, empty ones included — are handed to the onEpoch callback, which
// returns the batch set to fill next. Flush hands off the final, partial
// epoch with final set.
type Demuxer struct {
	router      *Router
	epochEvents int64
	onEpoch     func(batches []*Batch, final bool) ([]*Batch, error)

	batches []*Batch
	epoch   int64
	seen    int64 // events in the current epoch
	total   int64
	flushed bool
}

// NewDemuxer returns a demuxer routing through router, cutting epochs
// every epochEvents global events (0 selects DefaultEpochEvents).
// onEpoch receives each completed epoch's batches — indexed by shard, in
// shard order — and returns the batches to fill for the next epoch; it
// may hand the same set back (serial engine) or a second set (parallel
// engine, whose shards are still draining the delivered one).
func NewDemuxer(router *Router, epochEvents int64, onEpoch func(batches []*Batch, final bool) ([]*Batch, error)) *Demuxer {
	if epochEvents <= 0 {
		epochEvents = DefaultEpochEvents
	}
	return &Demuxer{
		router:      router,
		epochEvents: epochEvents,
		onEpoch:     onEpoch,
		batches:     newBatches(router.Shards()),
	}
}

// Events reports the number of events demultiplexed so far.
func (d *Demuxer) Events() int64 { return d.total }

// Epoch reports the current (unflushed) epoch number.
func (d *Demuxer) Epoch() int64 { return d.epoch }

// Emit routes one event to its shard's current batch, rewriting it into
// that shard's local OID space, and cuts an epoch when due. It
// implements trace.Sink.
func (d *Demuxer) Emit(e trace.Event) error {
	if d.flushed {
		return fmt.Errorf("shard: demux Emit after Flush")
	}
	var s int
	switch e.Kind {
	case trace.KindCreate:
		var local heap.OID
		var err error
		s, local, err = d.router.Create(e.OID, e.Parent)
		if err != nil {
			return err
		}
		e.OID = local
		if e.Parent != heap.NilOID {
			// A child inherits its parent's shard, so the parent's local
			// OID is in the same space.
			_, plocal, err := d.router.Lookup(e.Parent)
			if err != nil {
				return err
			}
			e.Parent = plocal
		}
	case trace.KindRoot, trace.KindRead, trace.KindModify:
		var local heap.OID
		var err error
		s, local, err = d.router.Lookup(e.OID)
		if err != nil {
			return err
		}
		e.OID = local
	case trace.KindWrite:
		var local heap.OID
		var err error
		s, local, err = d.router.Lookup(e.OID)
		if err != nil {
			return err
		}
		e.OID = local
		if e.Target != heap.NilOID {
			ts, tlocal, err := d.router.Lookup(e.Target)
			if err != nil {
				return err
			}
			if ts == s {
				e.Target = tlocal
			} else {
				b := d.batches[s]
				b.Foreign = append(b.Foreign, ForeignWrite{
					Pos:    int32(len(b.Events)),
					Shard:  uint8(ts),
					Target: uint32(tlocal),
				})
				e.Target = heap.NilOID
			}
		}
	default:
		return fmt.Errorf("shard: demux of invalid event kind %v", e.Kind)
	}
	d.batches[s].Events = append(d.batches[s].Events, e)
	d.total++
	d.seen++
	if d.seen >= d.epochEvents {
		return d.cut(false)
	}
	return nil
}

// Flush hands off the final partial epoch (possibly empty) with final
// set. It must be called exactly once, after the last Emit.
func (d *Demuxer) Flush() error {
	if d.flushed {
		return fmt.Errorf("shard: demux Flush called twice")
	}
	d.flushed = true
	return d.cut(true)
}

func (d *Demuxer) cut(final bool) error {
	next, err := d.onEpoch(d.batches, final)
	if err != nil {
		return err
	}
	if !final {
		if len(next) != len(d.batches) {
			return fmt.Errorf("shard: onEpoch returned %d batches for %d shards", len(next), len(d.batches))
		}
		d.batches = next
		d.epoch++
		for _, b := range d.batches {
			b.reset(d.epoch)
		}
	}
	d.seen = 0
	return nil
}
