package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"odbgc/internal/heap"
	"odbgc/internal/trace"
)

// OO1 is a second synthetic application, modeled on Cattell's OO1
// ("Engineering Database") benchmark that the paper cites for its object
// sizes: a database of small *parts*, each connected to three other parts
// with strong ID locality, reached through a part index, and exercised by
// lookups and 7-level connection traversals. Garbage arises from part
// deletion (the index slot and every incoming connection are overwritten
// — exactly the pointer-overwrite hints the paper's policies feed on).
//
// The paper's own evaluation uses the augmented-binary-tree workload; OO1
// exists here to test whether the partition selection results transfer to
// a differently shaped database, which is the kind of follow-on the
// paper's "capture traces from existing ODBMS applications" future work
// asks for.

// OO1Config parameterizes the OO1-style workload.
type OO1Config struct {
	// Seed drives all randomness.
	Seed int64
	// Parts is the initial part count (OO1's small configuration is
	// 20000).
	Parts int
	// RefZone is the ID distance considered "near" (OO1: 1% of parts).
	RefZone int
	// LookupBatch is how many parts one lookup operation reads (OO1 reads
	// 1000 random parts per lookup measure; scaled down by default).
	LookupBatch int
	// TraverseCap bounds visited parts per traversal.
	TraverseCap int
	// MinDeletions and TotalOps are the stop conditions.
	MinDeletions int64
	TotalOps     int64
}

// The OO1 workload's fixed shape. No experiment varies these, so they
// are constants rather than OO1Config fields.
const (
	// oo1PartSize is each part's size in bytes (OO1 parts are ~50–100
	// bytes; connections are stored in the part here).
	oo1PartSize = 100
	// oo1IndexFanout is the pointer-slot count of index nodes.
	oo1IndexFanout = 32
	// oo1ConnectionLocality is the probability a connection targets one
	// of the RefZone nearest part IDs (OO1: 0.9); the rest are uniform.
	oo1ConnectionLocality = 0.9
	// oo1PLookup and oo1PTraverse are the operation mix per churn
	// iteration; the remainder deletes and re-inserts parts.
	oo1PLookup, oo1PTraverse = 0.45, 0.45
	// oo1TraverseDepth is the connection-following depth (OO1: 7 levels).
	oo1TraverseDepth = 7
	// oo1ChurnParts is how many parts each churn iteration deletes and
	// re-inserts (keeping the database size stable).
	oo1ChurnParts = 12
	// oo1MaxEvents is a safety cap on emitted events.
	oo1MaxEvents = 80_000_000
)

// DefaultOO1Config returns an OO1 workload comparable in live size to the
// paper's base tree workload (~20k parts ≈ 2 MB plus index).
func DefaultOO1Config() OO1Config {
	return OO1Config{
		Seed:        1,
		Parts:       20_000,
		RefZone:     200, // 1% of 20000
		LookupBatch: 30,
		TraverseCap: 150,
		// Part churn makes small, scattered garbage (one ~100-byte part
		// per ~4 overwrites), so a meaningful evaluation needs an order
		// of magnitude more overwrites than the tree workload.
		MinDeletions: 60_000,
		TotalOps:     3000,
	}
}

// Validate reports the first configuration error.
func (c OO1Config) Validate() error {
	switch {
	case c.Parts < 10:
		return fmt.Errorf("workload: OO1 Parts %d too small", c.Parts)
	case c.RefZone <= 0:
		return fmt.Errorf("workload: OO1 RefZone %d must be positive", c.RefZone)
	case c.LookupBatch <= 0 || c.TraverseCap <= 0:
		return fmt.Errorf("workload: OO1 operation sizes must be positive")
	case c.MinDeletions < 0 || c.TotalOps <= 0:
		return fmt.Errorf("workload: OO1 stop conditions invalid")
	}
	return nil
}

// Part field layout: three connections plus nothing else.
const (
	oo1Connections = 3
	oo1PartFields  = oo1Connections
)

// oo1Part is the generator's view of one part.
type oo1Part struct {
	oid heap.OID
	// conns are the three outgoing connections (by part OID).
	conns [oo1Connections]heap.OID
	// leaf and slot locate the part's index entry.
	leaf heap.OID
	slot int
	// incoming tracks which (part, connection) pairs point here, so
	// deletion can sever them.
	incoming map[heap.OID]int
	alive    bool
}

// OO1Generator emits the OO1-style trace. Single-use, like Generator.
type OO1Generator struct {
	cfg  OO1Config
	rng  *rand.Rand
	sink trace.Sink

	nextOID heap.OID
	parts   map[heap.OID]*oo1Part
	// order holds part OIDs in creation order for locality math; dead
	// entries are compacted lazily.
	order []heap.OID
	// leaves are index leaf nodes with free slot bookkeeping.
	leaves    []heap.OID
	freeSlots map[heap.OID][]int
	indexRoot heap.OID

	stats Stats
	ran   bool
}

// NewOO1 returns an OO1 generator.
func NewOO1(cfg OO1Config) (*OO1Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &OO1Generator{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		nextOID:   1,
		parts:     make(map[heap.OID]*oo1Part),
		freeSlots: make(map[heap.OID][]int),
	}, nil
}

// Run generates the whole trace into sink.
func (g *OO1Generator) Run(sink trace.Sink) (Stats, error) {
	if g.ran {
		return Stats{}, fmt.Errorf("workload: OO1 generator already ran")
	}
	g.ran = true
	g.sink = sink

	if err := g.build(); err != nil {
		return g.stats, err
	}

	var ops int64
	for ops < g.cfg.TotalOps || g.stats.Deletions < g.cfg.MinDeletions {
		if g.stats.Events >= oo1MaxEvents {
			return g.stats, fmt.Errorf("workload: OO1 event cap hit (deletions %d/%d, ops %d/%d)",
				g.stats.Deletions, g.cfg.MinDeletions, ops, g.cfg.TotalOps)
		}
		roll := g.rng.Float64()
		switch {
		case roll < oo1PLookup:
			if err := g.lookup(); err != nil {
				return g.stats, err
			}
		case roll < oo1PLookup+oo1PTraverse:
			if err := g.traverse(); err != nil {
				return g.stats, err
			}
		default:
			for i := 0; i < oo1ChurnParts; i++ {
				if err := g.deletePart(); err != nil {
					return g.stats, err
				}
				if err := g.insertPart(); err != nil {
					return g.stats, err
				}
			}
		}
		ops++
	}

	g.stats.LiveBytesEstimate = int64(len(g.parts)) * oo1PartSize
	g.stats.setEdgeReadWriteRatio()
	return g.stats, nil
}

// emit sends one event and updates the event counters.
func (g *OO1Generator) emit(e trace.Event) error {
	if err := g.sink.Emit(e); err != nil {
		return err
	}
	g.stats.count(e.Kind)
	return nil
}

// build creates the index skeleton and the initial parts.
func (g *OO1Generator) build() error {
	// Index root: a single wide node whose slots point at leaves.
	g.indexRoot = g.nextOID
	g.nextOID++
	rootSlots := (g.cfg.Parts+oo1IndexFanout-1)/oo1IndexFanout + g.cfg.Parts/oo1IndexFanout/2 + 8
	if err := g.emit(trace.Event{
		Kind: trace.KindCreate, OID: g.indexRoot,
		Size: int64(8 * rootSlots), NFields: rootSlots,
	}); err != nil {
		return err
	}
	if err := g.emit(trace.Event{Kind: trace.KindRoot, OID: g.indexRoot}); err != nil {
		return err
	}

	for i := 0; i < g.cfg.Parts; i++ {
		if _, err := g.createPart(); err != nil {
			return err
		}
	}
	// Wire connections after all parts exist so locality can look both
	// ways, as OO1 builds its connection table over the full part set.
	for _, oid := range g.order {
		if err := g.wireConnections(g.parts[oid]); err != nil {
			return err
		}
	}
	return nil
}

// newLeaf appends a fresh index leaf under the root.
func (g *OO1Generator) newLeaf() (heap.OID, error) {
	leaf := g.nextOID
	g.nextOID++
	rootObj := g.indexRoot
	// Find a free root slot: root slots are consumed in order.
	slot := len(g.leaves)
	if err := g.emit(trace.Event{
		Kind: trace.KindCreate, OID: leaf,
		Size: int64(8 * oo1IndexFanout), NFields: oo1IndexFanout,
		Parent: rootObj, ParentField: slot,
	}); err != nil {
		return heap.NilOID, err
	}
	g.leaves = append(g.leaves, leaf)
	slots := make([]int, oo1IndexFanout)
	for i := range slots {
		slots[i] = oo1IndexFanout - 1 - i // pop from the back = in order
	}
	g.freeSlots[leaf] = slots
	return leaf, nil
}

// leafWithSpace returns an index leaf with a free slot, preferring the
// newest leaf, then any leaf with freed slots, then a fresh leaf.
func (g *OO1Generator) leafWithSpace() (heap.OID, int, error) {
	if n := len(g.leaves); n > 0 {
		if leaf := g.leaves[n-1]; len(g.freeSlots[leaf]) > 0 {
			return leaf, g.popSlot(leaf), nil
		}
		for _, leaf := range g.leaves {
			if len(g.freeSlots[leaf]) > 0 {
				return leaf, g.popSlot(leaf), nil
			}
		}
	}
	leaf, err := g.newLeaf()
	if err != nil {
		return heap.NilOID, 0, err
	}
	return leaf, g.popSlot(leaf), nil
}

func (g *OO1Generator) popSlot(leaf heap.OID) int {
	slots := g.freeSlots[leaf]
	slot := slots[len(slots)-1]
	g.freeSlots[leaf] = slots[:len(slots)-1]
	return slot
}

// createPart allocates one part and indexes it (connections are wired
// separately).
func (g *OO1Generator) createPart() (*oo1Part, error) {
	leaf, slot, err := g.leafWithSpace()
	if err != nil {
		return nil, err
	}
	oid := g.nextOID
	g.nextOID++
	if err := g.emit(trace.Event{
		Kind: trace.KindCreate, OID: oid, Size: oo1PartSize,
		NFields: oo1PartFields, Parent: leaf, ParentField: slot,
	}); err != nil {
		return nil, err
	}
	p := &oo1Part{oid: oid, leaf: leaf, slot: slot, incoming: make(map[heap.OID]int), alive: true}
	g.parts[oid] = p
	g.order = append(g.order, oid)
	g.stats.Nodes++
	return p, nil
}

// pickTarget selects a connection target for p with OO1's locality rule.
func (g *OO1Generator) pickTarget(p *oo1Part) heap.OID {
	for tries := 0; tries < 40; tries++ {
		var cand heap.OID
		if g.rng.Float64() < oo1ConnectionLocality {
			// Near in creation order.
			idx := g.indexOf(p.oid)
			lo := idx - g.cfg.RefZone
			if lo < 0 {
				lo = 0
			}
			hi := idx + g.cfg.RefZone
			if hi >= len(g.order) {
				hi = len(g.order) - 1
			}
			cand = g.order[lo+g.rng.Intn(hi-lo+1)]
		} else {
			cand = g.order[g.rng.Intn(len(g.order))]
		}
		q := g.parts[cand]
		if q != nil && q.alive && cand != p.oid {
			return cand
		}
	}
	return heap.NilOID
}

// indexOf finds p's position in creation order; the order slice is
// compacted lazily, so a linearish probe from a remembered hint is
// avoided by simple binary search on OID (creation order is OID order).
func (g *OO1Generator) indexOf(oid heap.OID) int {
	lo, hi := 0, len(g.order)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.order[mid] < oid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// wireConnections fills p's three connection fields.
func (g *OO1Generator) wireConnections(p *oo1Part) error {
	for c := 0; c < oo1Connections; c++ {
		if p.conns[c] != heap.NilOID {
			continue
		}
		target := g.pickTarget(p)
		if target == heap.NilOID {
			continue
		}
		if err := g.emit(trace.Event{Kind: trace.KindWrite, OID: p.oid, Field: c, Target: target}); err != nil {
			return err
		}
		p.conns[c] = target
		g.parts[target].incoming[p.oid] = c
		g.stats.DenseEdges++
	}
	return nil
}

// lookup reads a batch of random parts through the index.
func (g *OO1Generator) lookup() error {
	if err := g.emit(trace.Event{Kind: trace.KindRead, OID: g.indexRoot}); err != nil {
		return err
	}
	for i := 0; i < g.cfg.LookupBatch; i++ {
		p := g.randomPart()
		if p == nil {
			return nil
		}
		if err := g.emit(trace.Event{Kind: trace.KindRead, OID: p.leaf}); err != nil {
			return err
		}
		if err := g.emit(trace.Event{Kind: trace.KindRead, OID: p.oid}); err != nil {
			return err
		}
	}
	return nil
}

// traverse follows connections depth-first from a random part.
func (g *OO1Generator) traverse() error {
	start := g.randomPart()
	if start == nil {
		return nil
	}
	visited := 0
	var walk func(p *oo1Part, depth int) error
	walk = func(p *oo1Part, depth int) error {
		if visited >= g.cfg.TraverseCap {
			return nil
		}
		visited++
		if err := g.emit(trace.Event{Kind: trace.KindRead, OID: p.oid}); err != nil {
			return err
		}
		if depth == 0 {
			return nil
		}
		for _, c := range p.conns {
			if c == heap.NilOID {
				continue
			}
			q := g.parts[c]
			if q == nil || !q.alive {
				continue
			}
			if err := walk(q, depth-1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(start, oo1TraverseDepth)
}

// randomPart picks a uniformly random alive part, compacting lazily.
func (g *OO1Generator) randomPart() *oo1Part {
	for len(g.order) > 0 {
		i := g.rng.Intn(len(g.order))
		p := g.parts[g.order[i]]
		if p != nil && p.alive {
			return p
		}
		g.order = append(g.order[:i], g.order[i+1:]...)
	}
	return nil
}

// deletePart removes one random part: its index slot and every incoming
// connection are overwritten with nil (the garbage-creating overwrites),
// making the part unreachable.
func (g *OO1Generator) deletePart() error {
	p := g.randomPart()
	if p == nil {
		return nil
	}
	if err := g.emit(trace.Event{Kind: trace.KindWrite, OID: p.leaf, Field: p.slot, Target: heap.NilOID}); err != nil {
		return err
	}
	g.stats.Deletions++
	g.freeSlots[p.leaf] = append(g.freeSlots[p.leaf], p.slot)
	srcs := make([]heap.OID, 0, len(p.incoming))
	for src := range p.incoming {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, src := range srcs {
		q := g.parts[src]
		if q == nil || !q.alive {
			continue
		}
		field := p.incoming[src]
		if err := g.emit(trace.Event{Kind: trace.KindWrite, OID: src, Field: field, Target: heap.NilOID}); err != nil {
			return err
		}
		g.stats.Deletions++
		q.conns[field] = heap.NilOID
	}
	// Sever our outgoing bookkeeping so targets forget us.
	for _, c := range p.conns {
		if c != heap.NilOID {
			if q := g.parts[c]; q != nil {
				delete(q.incoming, p.oid)
			}
		}
	}
	p.alive = false
	delete(g.parts, p.oid)
	return nil
}

// insertPart creates and wires one replacement part.
func (g *OO1Generator) insertPart() error {
	p, err := g.createPart()
	if err != nil {
		return err
	}
	g.stats.Nodes++
	return g.wireConnections(p)
}
