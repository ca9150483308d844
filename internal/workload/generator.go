package workload

import (
	"fmt"
	"math/rand"

	"odbgc/internal/heap"
	"odbgc/internal/trace"
)

// Field layout of a regular node. Tree edges occupy the first two fields;
// the dense edge and large-leaf attachment get one field each. Large leaf
// objects have no fields.
const (
	fieldLeftChild  = 0
	fieldRightChild = 1
	fieldDense      = 2
	fieldLarge      = 3
	nodeFields      = 4
)

// The application's fixed shape (Section 5). The paper varies only the
// partition selection policy and holds these values fixed, so they are
// constants rather than Config fields.
const (
	// minObjectSize and maxObjectSize bound the uniform node size
	// distribution (50–150 bytes, mean 100).
	minObjectSize, maxObjectSize = 50, 150
	// pNoTraversal and pDepthFirst select the traversal style of a visit
	// action; the remainder is breadth-first (30% none, 20% depth-first,
	// 50% breadth-first).
	pNoTraversal, pDepthFirst = 0.30, 0.20
	// pSkipEdge is the chance a traversal does not descend through a tree
	// edge (5%).
	pSkipEdge = 0.05
	// pModify is the chance a visited node is modified (1%).
	pModify = 0.01
	// pReadLarge is the chance a visit to a node also reads its attached
	// large leaf object.
	pReadLarge = 0.05
	// deletionsPerTraversal is the mean number of tree-edge deletions per
	// churn iteration (one traversal action each): an iteration deletes
	// one edge with this probability. It tunes the edge read/write ratio,
	// which the paper keeps around 15–20.
	deletionsPerTraversal = 0.7
)

// Stats summarizes a generated trace.
type Stats struct {
	// Events is the total number of events emitted.
	Events int64
	// Creates, Roots, Reads, Writes, Modifies count events by kind.
	Creates, Roots, Reads, Writes, Modifies int64
	// Deletions counts tree-edge deletions (the garbage-creating pointer
	// overwrites).
	Deletions int64
	// TraversalsNone, TraversalsDFS, TraversalsBFS count visit actions by
	// style (the paper's odds: 30% none, 20% depth-first, 50%
	// breadth-first).
	TraversalsNone, TraversalsDFS, TraversalsBFS int64
	// AllocatedBytes is cumulative allocation; LiveBytesEstimate is the
	// generator's final visitable-set estimate.
	AllocatedBytes    int64
	LiveBytesEstimate int64
	// Nodes and LargeObjects count allocations by class; Trees counts
	// trees created.
	Nodes, LargeObjects, Trees int64
	// DenseEdges counts dense edges installed; CrossTreeEdges counts the
	// subset that landed in a different tree (CrossTreeFraction > 0).
	DenseEdges     int64
	CrossTreeEdges int64
	// EdgeReadWriteRatio is Reads divided by Writes+Creates, where
	// Creates counts every create, with or without a parent — the paper
	// keeps it around 15–20.
	EdgeReadWriteRatio float64
}

// count records one emitted event in Events and its kind's counter.
func (st *Stats) count(k trace.Kind) {
	st.Events++
	switch k {
	case trace.KindCreate:
		st.Creates++
	case trace.KindRoot:
		st.Roots++
	case trace.KindRead:
		st.Reads++
	case trace.KindWrite:
		st.Writes++
	case trace.KindModify:
		st.Modifies++
	}
}

// setEdgeReadWriteRatio computes EdgeReadWriteRatio from the event
// counts; it stays 0 for a trace with no writes or creates.
func (st *Stats) setEdgeReadWriteRatio() {
	if w := st.Writes + st.Creates; w > 0 {
		st.EdgeReadWriteRatio = float64(st.Reads) / float64(w)
	}
}

// node is the generator's private view of one tree node. It lives in
// Generator.slab while the node is alive, and is dropped at the first
// compaction after its subtree is deleted.
type node struct {
	oid      heap.OID
	kids     [2]heap.OID
	bytes    int64    // node size plus the attached large leaf's, if any
	largeOID heap.OID // OID of the attached large leaf, NilOID if none
}

// minSlab is the smallest capacity compactSlab gives the node slab.
const minSlab = 256

// tree is one augmented binary tree. It is built in one burst, so its
// nodes' OIDs (and its large leaves') form one contiguous range starting
// at root.
type tree struct {
	root heap.OID
	// pool is a sampling pool for uniform picks: the tree's node OIDs as
	// offsets from root. Dead entries are dropped lazily, when a draw hits
	// one, and the pool is reallocated at its length once half its
	// capacity is unused. aliveCount is the exact number of alive nodes.
	pool       []uint32
	aliveCount int
	// idx is the tree's position in Generator.trees (and its slot in the
	// Fenwick index), -1 until the tree is registered.
	idx int
}

// Generator emits the synthetic application trace. It is single-use: one
// Run per Generator.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	sink trace.Sink

	// trees holds every tree ever planted, chopped-down ones included:
	// the uniform tree pick draws over all of them.
	trees []*tree
	// slab holds the alive nodes in OID order, among dead ones not yet
	// compacted away (see addNode). Its capacity stays within twice the
	// peak alive count, however long the run.
	slab []node
	// slot maps every OID issued so far (its length is the next OID) to 1
	// + the node's slab index, or to 0 when the OID is not an alive node:
	// NilOID, a large leaf, or a node in a deleted subtree. With the trees
	// and their pools, it is the state that grows with run length: under
	// 8 bytes per OID in all (TestGeneratorMemoryTracksAliveNodes).
	slot       []uint32
	totalAlive int
	// treeBIT is a 1-based Fenwick index over the trees' aliveCount, so
	// the alive-weighted tree pick in pickTree is O(log trees). Chopped-
	// down trees stay in the list forever (the live setpoint replaces
	// them with fresh ones), so with a long churn phase the tree count
	// grows linearly with total allocation and a linear scan per
	// deletion turns the whole run quadratic.
	treeBIT []int

	// work is traversal scratch, reused by every call: the FIFO of
	// buildTreeSized and traverseBreadthFirst, and killSubtree's stack.
	// None of the three runs inside another.
	work []heap.OID

	liveBytes  int64
	allocBytes int64
	stats      Stats
	ran        bool

	buildDone func()
}

// SetBuildCompleteHook registers fn to run once, after the build phase
// finishes and before the churn phase starts. Warm-start measurement uses
// it to discard build-phase costs. It must be set before Run.
func (g *Generator) SetBuildCompleteHook(fn func()) { g.buildDone = fn }

// New returns a generator for cfg.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), slot: []uint32{0}}, nil
}

// Run generates the whole trace into sink and returns the trace summary.
func (g *Generator) Run(sink trace.Sink) (Stats, error) {
	if g.ran {
		return Stats{}, fmt.Errorf("workload: generator already ran")
	}
	g.ran = true
	g.sink = sink

	// Build phase: create trees until the live target is reached.
	for g.liveBytes < g.cfg.TargetLiveBytes {
		if err := g.buildTree(); err != nil {
			return g.stats, err
		}
	}
	if g.buildDone != nil {
		g.buildDone()
	}

	// Churn phase: traverse, delete, regrow until the allocation and
	// deletion targets are met.
	for g.allocBytes < g.cfg.TotalAllocBytes || g.stats.Deletions < g.cfg.MinDeletions {
		if g.stats.Events >= g.cfg.MaxEvents {
			return g.stats, fmt.Errorf("workload: event cap %d hit before targets (alloc %d/%d, deletions %d/%d)",
				g.cfg.MaxEvents, g.allocBytes, g.cfg.TotalAllocBytes, g.stats.Deletions, g.cfg.MinDeletions)
		}
		if err := g.traversalAction(); err != nil {
			return g.stats, err
		}
		stuck := false
		if g.rng.Float64() < deletionsPerTraversal {
			deleted, err := g.deleteRandomEdge()
			if err != nil {
				return g.stats, err
			}
			stuck = !deleted
		}
		for g.liveBytes < g.cfg.TargetLiveBytes {
			if err := g.grow(); err != nil {
				return g.stats, err
			}
		}
		if stuck {
			// The forest has been chopped to childless stumps (possible
			// when heavy large leaves keep the live estimate above the
			// setpoint); grow fresh deletable trees so churn can proceed.
			if err := g.grow(); err != nil {
				return g.stats, err
			}
		}
	}

	g.stats.AllocatedBytes = g.allocBytes
	g.stats.LiveBytesEstimate = g.liveBytes
	g.stats.setEdgeReadWriteRatio()
	return g.stats, nil
}

// emit sends one event and updates the event counters.
func (g *Generator) emit(e trace.Event) error {
	if err := g.sink.Emit(e); err != nil {
		return err
	}
	g.stats.count(e.Kind)
	return nil
}

func (g *Generator) nodeSize() int64 {
	return minObjectSize + g.rng.Int63n(maxObjectSize-minObjectSize+1)
}

// newOID issues the next OID, not an alive node until addNode registers
// it.
func (g *Generator) newOID() heap.OID {
	g.slot = append(g.slot, 0)
	return heap.OID(len(g.slot) - 1)
}

// nodeOf returns alive node oid's slab entry. The pointer is valid until
// the next addNode.
func (g *Generator) nodeOf(oid heap.OID) *node { return &g.slab[g.slot[oid]-1] }

// addNode appends n, the newest node, to the slab. A full slab is
// compacted first, so each compaction is paid for by at least half a
// slab of appends.
func (g *Generator) addNode(n node) {
	if len(g.slab) == cap(g.slab) {
		g.compactSlab()
	}
	g.slab = append(g.slab, n)
	g.slot[n.oid] = uint32(len(g.slab))
}

// compactSlab drops the slab's dead nodes, keeping OID order, so a
// tree's nodes stay together. It compacts in place when at least half
// the slots are dead, and otherwise into a new slab of twice the alive
// count (minSlab at least).
func (g *Generator) compactSlab() {
	alive := g.slab[:0]
	if want := max(2*g.totalAlive, minSlab); want > cap(g.slab) {
		alive = make([]node, 0, want)
	}
	for _, n := range g.slab {
		if g.slot[n.oid] != 0 {
			alive = append(alive, n)
			g.slot[n.oid] = uint32(len(alive))
		}
	}
	g.slab = alive
}

// createNode allocates a node object under parent (NilOID for a tree
// root), registers it in t, and possibly attaches a dense edge and a large
// leaf.
func (g *Generator) createNode(t *tree, parent heap.OID, parentField int) (heap.OID, error) {
	oid := g.newOID()
	size := g.nodeSize()
	if err := g.emit(trace.Event{
		Kind: trace.KindCreate, OID: oid, Size: size, NFields: nodeFields,
		Parent: parent, ParentField: parentField,
	}); err != nil {
		return 0, err
	}
	g.addNode(node{oid: oid, bytes: size})
	t.pool = append(t.pool, uint32(oid-t.root))
	t.aliveCount++
	g.totalAlive++
	if t.idx >= 0 {
		g.bitAdd(t.idx, 1)
	}
	if parent != heap.NilOID {
		g.nodeOf(parent).kids[parentField] = oid
	}
	g.liveBytes += size
	g.allocBytes += size
	g.stats.Nodes++

	// Dense edge to a random alive node — of the same tree, or (with
	// probability CrossTreeFraction) of a uniformly chosen tree. The
	// cross-tree branch draws randomness only when the knob is set, so
	// CrossTreeFraction == 0 reproduces existing traces bit-identically.
	if g.rng.Float64() < g.cfg.DenseEdgeFraction {
		target, crossed := heap.NilOID, false
		if g.cfg.CrossTreeFraction > 0 && g.rng.Float64() < g.cfg.CrossTreeFraction {
			if other := g.pickTreeUniform(); other != nil {
				target = g.pickAlive(other)
				crossed = other != t
			}
		}
		if target == heap.NilOID {
			target, crossed = g.pickAlive(t), false
		}
		if target != heap.NilOID && target != oid {
			if err := g.emit(trace.Event{Kind: trace.KindWrite, OID: oid, Field: fieldDense, Target: target}); err != nil {
				return 0, err
			}
			g.stats.DenseEdges++
			if crossed {
				g.stats.CrossTreeEdges++
			}
		}
	}

	// Large leaf attachment.
	if g.cfg.LargeEvery > 0 && g.rng.Intn(g.cfg.LargeEvery) == 0 {
		largeOID := g.newOID()
		if err := g.emit(trace.Event{
			Kind: trace.KindCreate, OID: largeOID, Size: g.cfg.LargeObjectSize,
			NFields: 0, Parent: oid, ParentField: fieldLarge,
		}); err != nil {
			return 0, err
		}
		n := g.nodeOf(oid)
		n.bytes += g.cfg.LargeObjectSize
		n.largeOID = largeOID
		g.liveBytes += g.cfg.LargeObjectSize
		g.allocBytes += g.cfg.LargeObjectSize
		g.stats.LargeObjects++
	}
	return oid, nil
}

// buildTree creates one augmented binary tree breadth-first with a size
// drawn uniformly from [mean/2, 3·mean/2).
func (g *Generator) buildTree() error {
	return g.buildTreeSized(g.cfg.MeanTreeNodes/2 + g.rng.Intn(g.cfg.MeanTreeNodes))
}

// buildTreeSized creates one augmented binary tree of the given node count
// breadth-first.
func (g *Generator) buildTreeSized(target int) error {
	if target < 2 {
		target = 2
	}
	// The root is the next OID issued, and the tree gets exactly target
	// nodes.
	t := &tree{root: heap.OID(len(g.slot)), pool: make([]uint32, 0, target), idx: -1}
	root, err := g.createNode(t, heap.NilOID, 0)
	if err != nil {
		return err
	}
	if err := g.emit(trace.Event{Kind: trace.KindRoot, OID: root}); err != nil {
		return err
	}
	t.idx = len(g.trees)
	g.trees = append(g.trees, t)
	g.bitAppend()
	g.bitAdd(t.idx, t.aliveCount) // the root, created before registration
	g.stats.Trees++

	// Breadth-first fill: attach children left-to-right, level by level.
	queue := append(g.work[:0], root)
	count := 1
	for head := 0; count < target && head < len(queue); head++ {
		for f := 0; f < 2 && count < target; f++ {
			child, err := g.createNode(t, queue[head], f)
			if err != nil {
				return err
			}
			queue = append(queue, child)
			count++
		}
	}
	g.work = queue
	return nil
}

// pickAlive returns a uniformly random alive node of t, dropping the
// dead pool entries it draws, or NilOID if the tree is dead. A dead draw
// swap-removes its entry, so which node a draw picks depends on the
// pool's order as well as its length.
func (g *Generator) pickAlive(t *tree) heap.OID {
	for len(t.pool) > 0 {
		i := g.rng.Intn(len(t.pool))
		oid := t.root + heap.OID(t.pool[i])
		if g.slot[oid] != 0 {
			return oid
		}
		last := len(t.pool) - 1
		t.pool[i] = t.pool[last]
		t.pool = t.pool[:last]
		if last <= cap(t.pool)/2 {
			t.pool = append(make([]uint32, 0, last), t.pool...)
		}
	}
	return heap.NilOID
}

// pickTreeUniform returns a uniformly random tree (the paper: "the
// particular trees that are visited are chosen randomly"). Chopped-down
// trees are as likely as fresh ones, so traversals keep exercising
// deletion-diluted data — which is exactly what makes compaction pay off.
func (g *Generator) pickTreeUniform() *tree {
	if len(g.trees) == 0 {
		return nil
	}
	t := g.trees[g.rng.Intn(len(g.trees))]
	if t.aliveCount == 0 {
		return nil
	}
	return t
}

// pickTree returns a random tree weighted by its alive node count — the
// tree containing a uniformly random alive node of the forest. Deletions
// use it so that "randomly deleting tree edges" picks a uniformly random
// edge of the whole forest. The Fenwick descend finds the first tree
// whose cumulative alive count exceeds r — the same tree a linear scan
// in list order would select, in O(log trees).
func (g *Generator) pickTree() *tree {
	if g.totalAlive == 0 {
		return nil
	}
	r := g.rng.Intn(g.totalAlive)
	idx := 0
	mask := 1
	for mask*2 <= len(g.treeBIT) {
		mask *= 2
	}
	for ; mask > 0; mask >>= 1 {
		if next := idx + mask; next <= len(g.treeBIT) && g.treeBIT[next-1] <= r {
			r -= g.treeBIT[next-1]
			idx = next
		}
	}
	return g.trees[idx]
}

// bitAdd adds delta to tree idx's alive count in the Fenwick index.
func (g *Generator) bitAdd(idx, delta int) {
	for i := idx + 1; i <= len(g.treeBIT); i += i & -i {
		g.treeBIT[i-1] += delta
	}
}

// bitPrefix returns the summed alive count of the first n trees.
func (g *Generator) bitPrefix(n int) int {
	s := 0
	for i := n; i > 0; i -= i & -i {
		s += g.treeBIT[i-1]
	}
	return s
}

// bitAppend extends the Fenwick index by one zero-valued slot. The new
// cell subsumes the lowbit-sized range ending at it, so its initial
// value is that range's current sum.
func (g *Generator) bitAppend() {
	i := len(g.treeBIT) + 1
	g.treeBIT = append(g.treeBIT, g.bitPrefix(i-1)-g.bitPrefix(i-i&-i))
}

// traversalAction performs one visit action: none, a partial depth-first
// traversal, or a partial breadth-first traversal of a random tree.
func (g *Generator) traversalAction() error {
	roll := g.rng.Float64()
	if roll < pNoTraversal {
		g.stats.TraversalsNone++
		return nil
	}
	t := g.pickTreeUniform()
	if t == nil {
		return nil
	}
	if roll < pNoTraversal+pDepthFirst {
		g.stats.TraversalsDFS++
		return g.traverseDepthFirst(t, t.root)
	}
	g.stats.TraversalsBFS++
	return g.traverseBreadthFirst(t)
}

// visit reads a node, occasionally its large leaf, and occasionally
// modifies it.
func (g *Generator) visit(t *tree, oid heap.OID) error {
	if err := g.emit(trace.Event{Kind: trace.KindRead, OID: oid}); err != nil {
		return err
	}
	if large := g.nodeOf(oid).largeOID; large != heap.NilOID && g.rng.Float64() < pReadLarge {
		if err := g.emit(trace.Event{Kind: trace.KindRead, OID: large}); err != nil {
			return err
		}
	}
	if g.rng.Float64() < pModify {
		if err := g.emit(trace.Event{Kind: trace.KindModify, OID: oid}); err != nil {
			return err
		}
	}
	return nil
}

func (g *Generator) traverseDepthFirst(t *tree, oid heap.OID) error {
	if err := g.visit(t, oid); err != nil {
		return err
	}
	for _, kid := range g.nodeOf(oid).kids {
		if kid == heap.NilOID {
			continue
		}
		if g.rng.Float64() < pSkipEdge {
			continue
		}
		if err := g.traverseDepthFirst(t, kid); err != nil {
			return err
		}
	}
	return nil
}

func (g *Generator) traverseBreadthFirst(t *tree) error {
	queue := append(g.work[:0], t.root)
	for head := 0; head < len(queue); head++ {
		oid := queue[head]
		if err := g.visit(t, oid); err != nil {
			return err
		}
		for _, kid := range g.nodeOf(oid).kids {
			if kid == heap.NilOID {
				continue
			}
			if g.rng.Float64() < pSkipEdge {
				continue
			}
			queue = append(queue, kid)
		}
	}
	g.work = queue
	return nil
}

// deleteRandomEdge removes one tree edge: the pointer from a random
// non-root node's parent is overwritten with nil, making the subtree
// unreachable through tree edges (dense edges may keep parts of it alive
// in the heap — the simulator's concern, not ours). It reports whether an
// edge was actually deleted; a forest chopped down to childless stumps has
// nothing left to delete, and the churn loop must grow fresh material.
func (g *Generator) deleteRandomEdge() (bool, error) {
	for tries := 0; tries < 30; tries++ {
		t := g.pickTree()
		if t == nil {
			return false, nil
		}
		oid := g.pickAlive(t)
		if oid == heap.NilOID {
			continue
		}
		n := g.nodeOf(oid)
		f := g.rng.Intn(2)
		if n.kids[f] == heap.NilOID {
			f = 1 - f
		}
		if n.kids[f] == heap.NilOID {
			continue
		}
		child := n.kids[f]
		if err := g.emit(trace.Event{Kind: trace.KindWrite, OID: oid, Field: f, Target: heap.NilOID}); err != nil {
			return false, err
		}
		g.stats.Deletions++
		n.kids[f] = heap.NilOID
		g.killSubtree(t, child)
		return true, nil
	}
	return false, nil
}

// killSubtree marks the subtree rooted at oid dead in the generator's
// model and subtracts its bytes from the live estimate.
func (g *Generator) killSubtree(t *tree, oid heap.OID) {
	killed := 0
	stack := append(g.work[:0], oid)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s := g.slot[cur]
		if s == 0 {
			continue
		}
		g.slot[cur] = 0
		n := &g.slab[s-1]
		t.aliveCount--
		g.totalAlive--
		killed++
		g.liveBytes -= n.bytes
		for _, kid := range n.kids {
			if kid != heap.NilOID {
				stack = append(stack, kid)
			}
		}
	}
	g.work = stack
	if killed > 0 {
		g.bitAdd(t.idx, -killed)
	}
}

// grow restores the live-byte setpoint by creating one full-size fresh
// tree. Replacement data arrives as whole trees for the same reason the
// original forest is built tree-at-a-time: a tree built in one burst is
// physically contiguous (consecutive allocations land in the same
// partition) and its dense edges — random nodes of the *same* tree — stay
// mostly intra-partition. Grafting replacement nodes one-by-one onto old
// trees instead scatters children away from their parents and makes both
// tree and dense edges cross partitions; the resulting inter-partition
// references among garbage pin nearly everything through the remembered
// sets, and no selection policy (not even the oracle) can reclaim much.
func (g *Generator) grow() error { return g.buildTree() }
