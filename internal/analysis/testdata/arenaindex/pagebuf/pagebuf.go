// Package pagebuf is an arenaindex fixture: a miniature frame arena with
// the same shape as the real one, a slice of linked frames marked
// //odbgc:arena.
package pagebuf

type node struct {
	val  int
	prev int32
	next int32
}

type ring struct {
	nodes []node //odbgc:arena
}

// push may reallocate the arena's backing array.
func (r *ring) push(v int) {
	r.nodes = append(r.nodes, node{val: v})
}

// Stale holds a pointer into the arena across a call that can grow it.
func (r *ring) Stale(i int32, v int) int32 {
	n := &r.nodes[i]
	r.push(v)
	return n.next // want `used after call to push, which grows nodes`
}

// Fresh re-indexes after growth, the correct order.
func (r *ring) Fresh(i int32, v int) int32 {
	r.push(v)
	n := &r.nodes[i]
	return n.next
}

// Reset reassigns the arena directly while holding a pointer into it.
func (r *ring) Reset(i int32) int {
	n := &r.nodes[i]
	r.nodes = make([]node, 1)
	return n.val // want `used after reassignment of r.nodes`
}

// Shrink reads the old element after truncating in place on purpose;
// the suppression records why.
func (r *ring) Shrink(i int32) int {
	n := &r.nodes[i]
	r.nodes = r.nodes[:i]
	return n.val //odbgc:arena-ok truncation keeps the backing array, so n still reads the live element
}
