package heap

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// Config fixes the geometry of the simulated database.
type Config struct {
	// PageSize is the size of one page in bytes (the paper uses 8 KB). It
	// must be a power of two: page numbers are computed by shifting.
	PageSize int64
	// PartitionPages is the number of pages per partition (24–100 in the
	// paper, depending on database size).
	PartitionPages int
	// ReserveEmpty keeps one partition empty at all times so a copying
	// collection always has a target. It is false only under the
	// NoCollection policy, which never collects.
	ReserveEmpty bool
}

// DefaultConfig returns the geometry used for the paper's Tables 2–5:
// 48 pages of 8 KB per partition, with a reserved empty partition.
func DefaultConfig() Config {
	return Config{PageSize: 8192, PartitionPages: 48, ReserveEmpty: true}
}

// PartitionBytes returns the size of one partition in bytes.
func (c Config) PartitionBytes() int64 { return c.PageSize * int64(c.PartitionPages) }

func (c Config) validate() error {
	if c.PageSize <= 0 {
		return fmt.Errorf("heap: page size %d must be positive", c.PageSize)
	}
	if c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("heap: page size %d must be a power of two", c.PageSize)
	}
	if c.PartitionPages <= 0 {
		return fmt.Errorf("heap: partition pages %d must be positive", c.PartitionPages)
	}
	if c.PartitionBytes() > math.MaxUint32 {
		return fmt.Errorf("heap: partition of %d bytes exceeds the 4 GiB limit on object sizes", c.PartitionBytes())
	}
	return nil
}

// Partition is one contiguous, fixed-size region of the database address
// space. Objects are bump-allocated within it; space is reclaimed only by
// evacuating the whole partition (copying collection) and resetting it.
type Partition struct {
	// ID is the partition's index in the heap.
	ID PartitionID
	// Base is the partition's first global byte address.
	Base Addr

	used int64 // bump offset: bytes allocated since the last reset
	// resident lists the resident slots in arbitrary order; each slot
	// records its position here (resIdx) so removal is a swap with the
	// last element — no hashing on the allocation or collection paths.
	resident []Slot
}

// Used reports the bytes occupied in the partition (live objects plus
// unreclaimed garbage; there are no holes because allocation only bumps).
func (p *Partition) Used() int64 { return p.used }

// Len reports the number of objects resident in the partition.
func (p *Partition) Len() int { return len(p.resident) }

// Slots returns the slots resident in the partition, in unspecified
// order. The slice is the heap's own list: it is read-only, and Alloc,
// Move and Discard invalidate it.
func (p *Partition) Slots() []Slot { return p.resident }

// maxDenseOID bounds the OID index. OIDs index a slice, so they must be
// allocated densely (the workload generators number them from 1); an OID
// beyond this bound indicates a corrupt or hostile trace rather than a
// real database.
const maxDenseOID = OID(1) << 40

// slotLimit is the largest slot number Alloc may hand out: slots are
// 32-bit, and slot 0 is NilSlot. Tests lower it to reach the limit.
var slotLimit = 1<<32 - 1

// freeRec is the record of a slot that holds no object: NilSlot's, and
// every slot on the free list.
var freeRec = slotRec{part: int32(NoPartition)}

// Heap is the simulated object database: a growable sequence of partitions,
// slot storage for the resident objects, and a root set.
//
// The hot paths are map-free and pointer-free: an OID index resolves trace
// OIDs to dense slots, per-slot records hold every object's metadata, one
// field arena per partition holds its objects' fields (as slots), and
// partition residency is a swap-remove slice with per-slot back-indices.
// The heap keeps no record it can read back from these: the object count
// is the slot storage less its free list, and an allocation that misses
// its parent's partition scans the partitions' used bytes for the one
// with the most room.
type Heap struct {
	cfg       Config
	pageShift uint // log2(cfg.PageSize)
	parts     []*Partition

	// index maps each OID below len(index) to its slot, NilSlot when the
	// OID is not resident. It is the only structure sized by the OIDs a
	// trace has issued: 4 bytes per OID.
	index []Slot
	// slots is the slot storage; slots[0] is the NilSlot sentinel, a
	// permanently free record. free is the stack of discarded slots,
	// reused last freed first.
	slots []slotRec //odbgc:arena
	free  []Slot

	// fields[p] is partition p's field arena, run like its bytes: Alloc
	// and Move append an object's fields at its record's fieldOff,
	// Discard leaves them in place, and ResetPartition truncates the
	// arena, keeping its capacity for when p next receives survivors.
	fields [][]Slot //odbgc:arena

	// markEpoch stamps the current marking pass (see BeginMark). The
	// oracle and the collector share it, so one pass never mistakes
	// another's stamps for its own.
	markEpoch uint32

	// rootList is the database root set in insertion order; each root's
	// slot also carries a root flag for O(1) membership tests. Roots are
	// never discarded, so their slots are stable.
	rootList []Slot

	sortKeys []oidSlot // SortByOID scratch

	// empty is the reserved empty partition, or NoPartition when
	// cfg.ReserveEmpty is false.
	empty PartitionID

	occupied       int64 // current bytes occupied across all partitions
	totalAllocated int64 // cumulative bytes ever allocated
	totalObjects   int64 // cumulative objects ever allocated
}

// ErrObjectTooLarge is returned when an object cannot fit in a partition.
var ErrObjectTooLarge = errors.New("heap: object larger than a partition")

// ErrSparseOID is returned when an OID is too large for the dense OID
// index; OIDs must be allocated densely from 1.
var ErrSparseOID = errors.New("heap: OID exceeds dense table bound")

// ErrTooManyFields is returned when an object asks for more than
// MaxFields pointer fields.
var ErrTooManyFields = errors.New("heap: object has more pointer fields than the limit")

// ErrResident is returned when Alloc names an OID that is already
// resident: traces never reuse an OID.
var ErrResident = errors.New("heap: OID already resident")

// ErrSlotLimit is returned when every one of the 2^32-1 slots holds a
// resident object.
var ErrSlotLimit = errors.New("heap: slot storage full")

// New returns an empty heap with one allocatable partition, plus the
// reserved empty partition if the configuration asks for one.
func New(cfg Config) (*Heap, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h := &Heap{
		cfg:       cfg,
		pageShift: uint(bits.TrailingZeros64(uint64(cfg.PageSize))),
		empty:     NoPartition,
		slots:     []slotRec{freeRec},
	}
	h.addPartition()
	if cfg.ReserveEmpty {
		h.empty = h.addPartition().ID
	}
	return h, nil
}

// Config returns the heap's geometry.
func (h *Heap) Config() Config { return h.cfg }

// addPartition appends a fresh partition and returns it.
func (h *Heap) addPartition() *Partition {
	id := PartitionID(len(h.parts))
	p := &Partition{
		ID:   id,
		Base: Addr(int64(id) * h.cfg.PartitionBytes()),
	}
	h.parts = append(h.parts, p)     //odbgc:alloc-ok amortized partition-table growth
	h.fields = append(h.fields, nil) //odbgc:alloc-ok amortized partition-table growth
	return p
}

// NumPartitions reports the current number of partitions, including the
// reserved empty partition if any.
func (h *Heap) NumPartitions() int { return len(h.parts) }

// Partition returns the partition with the given ID. It panics on an
// out-of-range ID, which always indicates a simulator bug.
func (h *Heap) Partition(id PartitionID) *Partition {
	return h.parts[id]
}

// EmptyPartition returns the reserved empty partition, or NoPartition when
// the heap runs without one.
func (h *Heap) EmptyPartition() PartitionID { return h.empty }

// SetEmptyPartition designates p as the reserved empty partition. The
// collector calls this after evacuating p. It panics if p is not empty.
func (h *Heap) SetEmptyPartition(p PartitionID) {
	if h.parts[p].used != 0 {
		panic(fmt.Sprintf("heap: partition %d designated empty but has %d used bytes", p, h.parts[p].used))
	}
	h.empty = p
}

// Lookup returns the slot of the resident object oid, or NilSlot if no
// such object is resident. It is the one read of the OID index; callers
// resolve each trace OID once and work on the slot.
func (h *Heap) Lookup(oid OID) Slot {
	if oid >= OID(len(h.index)) {
		return NilSlot
	}
	return h.index[oid]
}

// Contains reports whether oid names a resident object.
func (h *Heap) Contains(oid OID) bool { return h.Lookup(oid) != NilSlot }

// Resident reports whether s holds a resident object. A slot read from a
// field of a discarded object may have been freed since.
func (h *Heap) Resident(s Slot) bool { return h.slots[s].part >= 0 }

// Len reports the number of resident objects: every slot but NilSlot and
// the free ones.
func (h *Heap) Len() int { return len(h.slots) - 1 - len(h.free) }

// OID returns the identity of the object in slot s (NilOID for NilSlot or
// a free slot).
func (h *Heap) OID(s Slot) OID { return h.slots[s].oid }

// Size returns the size in bytes of the object in slot s.
func (h *Heap) Size(s Slot) int64 { return int64(h.slots[s].size) }

// PartitionOf returns the partition holding the object in slot s, or
// NoPartition for NilSlot or a free slot.
func (h *Heap) PartitionOf(s Slot) PartitionID { return PartitionID(h.slots[s].part) }

// AddrOf returns the current global byte offset of the object in slot s.
func (h *Heap) AddrOf(s Slot) Addr { return h.slots[s].addr }

// Weight returns the root-distance weight of the object in slot s.
func (h *Heap) Weight(s Slot) uint8 { return h.slots[s].weight }

// SetWeight sets the root-distance weight of the object in slot s.
func (h *Heap) SetWeight(s Slot, w uint8) { h.slots[s].weight = w }

// OutCount returns the object's count of inter-partition out-pointers,
// the column package remset maintains.
func (h *Heap) OutCount(s Slot) int32 { return h.slots[s].outCount }

// AddOutCount adds d to the object's out-pointer count and returns the
// new count.
func (h *Heap) AddOutCount(s Slot, d int32) int32 {
	r := &h.slots[s]
	r.outCount += d
	return r.outCount
}

// NumFields returns the number of pointer fields of the object in slot s.
func (h *Heap) NumFields(s Slot) int { return int(h.slots[s].nfields) }

// Fields returns the pointer fields of the object in slot s, as slots;
// NilSlot marks an empty field. The slice is a view into the field arena
// of the object's partition: writes through it bypass WriteField's
// checks, and it goes stale on an Alloc or Move into that partition, which
// may move the arena, or on the partition's ResetPartition.
func (h *Heap) Fields(s Slot) []Slot {
	r := &h.slots[s]
	return h.fields[r.part][r.fieldOff : r.fieldOff+r.nfields : r.fieldOff+r.nfields]
}

// ClearFields sets every field of the object in slot s to NilSlot.
func (h *Heap) ClearFields(s Slot) { clear(h.Fields(s)) }

// OIDBound returns one past the largest OID the index covers.
func (h *Heap) OIDBound() OID { return OID(len(h.index)) }

// TotalAllocatedBytes reports the cumulative bytes ever allocated, including
// bytes since reclaimed. This is the paper's "maximum allocated" axis.
func (h *Heap) TotalAllocatedBytes() int64 { return h.totalAllocated }

// TotalAllocatedObjects reports the cumulative number of objects allocated.
func (h *Heap) TotalAllocatedObjects() int64 { return h.totalObjects }

// OccupiedBytes reports the bytes currently occupied across all partitions:
// live objects plus unreclaimed garbage (the paper's "database size"). It is
// maintained incrementally and costs O(1).
func (h *Heap) OccupiedBytes() int64 { return h.occupied }

// FootprintBytes reports the total address space held by the database:
// partition count times partition size. This includes external
// fragmentation, matching Table 3's "maximum storage required".
func (h *Heap) FootprintBytes() int64 {
	return int64(len(h.parts)) * h.cfg.PartitionBytes()
}

// AddRoot marks the object in slot s as a member of the database root set.
// Root objects and everything reachable from them are live.
func (h *Heap) AddRoot(s Slot) {
	if !h.Resident(s) {
		panic(fmt.Sprintf("heap: AddRoot(slot %d): no such object", s)) //odbgc:alloc-ok cold panic path
	}
	r := &h.slots[s]
	if r.root {
		return
	}
	r.root = true
	h.rootList = append(h.rootList, s) //odbgc:alloc-ok amortized growth, once per root added
}

// IsRoot reports whether the object in slot s is in the root set.
func (h *Heap) IsRoot(s Slot) bool { return h.slots[s].root }

// Roots calls fn for every root, in the order the roots were added.
func (h *Heap) Roots(fn func(Slot)) {
	for _, s := range h.rootList {
		fn(s)
	}
}

// NumRoots reports the size of the root set.
func (h *Heap) NumRoots() int { return len(h.rootList) }

// oidSlot pairs a slot with its object's OID, the SortByOID key.
type oidSlot struct {
	oid OID
	s   Slot
}

// SortByOID sorts slots by their objects' trace OIDs. Slot numbers
// depend on the order objects were discarded, so every enumeration of
// slots whose order can affect a result sorts them this way.
func (h *Heap) SortByOID(slots []Slot) {
	keys := h.sortKeys[:0]
	for _, s := range slots {
		keys = append(keys, oidSlot{h.slots[s].oid, s})
	}
	slices.SortFunc(keys, func(a, b oidSlot) int { return cmp.Compare(a.oid, b.oid) })
	for i, k := range keys {
		slots[i] = k.s
	}
	h.sortKeys = keys
}

// --- marking ----------------------------------------------------------------
//
// Each slot carries the stamp of the last marking pass that reached it.
// BeginMark bumps the heap-wide epoch, which unmarks every slot at once:
// a pass performs no hashing and no up-front clearing, and its scratch
// is one word per resident object rather than one per OID ever issued.

// BeginMark starts a marking pass, invalidating every earlier pass's marks.
func (h *Heap) BeginMark() {
	h.markEpoch++
	if h.markEpoch == 0 { // uint32 wraparound: old stamps become ambiguous
		for i := range h.slots {
			h.slots[i].mark = 0
		}
		h.markEpoch = 1
	}
}

// Mark marks slot s in the current pass and reports whether it was
// unmarked before.
func (h *Heap) Mark(s Slot) bool {
	r := &h.slots[s]
	if r.mark == h.markEpoch {
		return false
	}
	r.mark = h.markEpoch
	return true
}

// Grew is the result of an allocation, reporting whether the database had
// to grow to satisfy it.
type Grew struct {
	// Added is the number of partitions added (0 or 1).
	Added int
}

// Alloc allocates a new object of the given size with nfields pointer
// slots, placing it near the object in slot parent when possible: in the
// parent's partition if the object fits there, otherwise in the resident
// partition with the most free space, otherwise in a freshly added
// partition (the paper's "when to grow" policy). A NilSlot parent
// requests no placement affinity.
//
// Alloc returns an error, and changes nothing, when size is not positive
// or exceeds the partition size, when nfields is negative or above
// MaxFields, when oid is nil, sparse or already resident, or when every
// slot is in use. In steady state — free slots and arena space available,
// index and resident slices at capacity — it must not allocate (pinned by
// TestAllocSteadyStateZeroAllocs).
//
//odbgc:hotpath
func (h *Heap) Alloc(oid OID, size int64, nfields int, parent Slot) (Slot, Grew, error) {
	if err := h.checkAlloc(oid, size, nfields); err != nil {
		return NilSlot, Grew{}, err
	}

	var grew Grew
	target := h.placeFor(size, parent)
	if target == nil {
		target = h.addPartition()
		grew.Added = 1
	}

	s := h.newSlot()
	// The partition's field arena grows amortized. Not append(fs,
	// make(...)...): under -race the compiler allocates that make, and
	// the steady state must not allocate there either.
	fs := slices.Grow(h.fields[target.ID], nfields)
	off := len(fs)
	fs = fs[:off+nfields]
	clear(fs[off:])
	h.fields[target.ID] = fs
	h.slots[s] = slotRec{
		oid:      oid,
		addr:     target.Base + Addr(target.used),
		size:     uint32(size),
		part:     int32(target.ID),
		fieldOff: uint32(off),
		nfields:  uint32(nfields),
		weight:   MaxWeight,
	}
	target.used += size
	h.residentAdd(target, s)
	if oid >= OID(len(h.index)) {
		h.growIndex(oid)
	}
	h.index[oid] = s
	h.occupied += size
	h.totalAllocated += size
	h.totalObjects++
	return s, grew, nil
}

// checkAlloc validates an allocation request before anything changes.
func (h *Heap) checkAlloc(oid OID, size int64, nfields int) error {
	switch {
	case size <= 0:
		return fmt.Errorf("heap: Alloc(%d): size %d must be positive", oid, size) //odbgc:alloc-ok cold error path
	case size > h.cfg.PartitionBytes():
		return fmt.Errorf("%w: %d > %d", ErrObjectTooLarge, size, h.cfg.PartitionBytes()) //odbgc:alloc-ok cold error path
	case nfields < 0:
		return fmt.Errorf("heap: Alloc(%d): negative field count %d", oid, nfields) //odbgc:alloc-ok cold error path
	case nfields > MaxFields:
		return fmt.Errorf("%w: Alloc(%d) asks for %d, limit %d", ErrTooManyFields, oid, nfields, MaxFields) //odbgc:alloc-ok cold error path
	case oid == NilOID:
		return fmt.Errorf("heap: Alloc: OID %d is the nil pointer", oid) //odbgc:alloc-ok cold error path
	case oid >= maxDenseOID:
		return fmt.Errorf("%w: %d", ErrSparseOID, oid) //odbgc:alloc-ok cold error path
	case h.Contains(oid):
		return fmt.Errorf("%w: Alloc(%d)", ErrResident, oid) //odbgc:alloc-ok cold error path
	case len(h.free) == 0 && len(h.slots) > slotLimit:
		return fmt.Errorf("%w: Alloc(%d) needs a slot beyond the limit of %d", ErrSlotLimit, oid, slotLimit) //odbgc:alloc-ok cold error path
	}
	return nil
}

// newSlot takes a slot from the free list, last freed first, or appends
// one to the slot storage. The storage doubles when full rather than
// growing by append's 1.25x for large slices: each outgrown copy is a
// large span the Go runtime keeps for a while, and with append's steps
// perfbench's paper-tables peaked at 129.6 MB instead of 117.3 MB on a
// 2-vCPU host (results/bench/BENCH_slot_heap.json, "slot_growth").
//
//odbgc:hotpath
func (h *Heap) newSlot() Slot {
	if n := len(h.free); n > 0 {
		s := h.free[n-1]
		h.free = h.free[:n-1]
		return s
	}
	if len(h.slots) == cap(h.slots) {
		h.slots = append(make([]slotRec, 0, 2*cap(h.slots)), h.slots...) //odbgc:alloc-ok amortized slot-storage doubling, bounded by twice the peak resident count
	}
	h.slots = append(h.slots, freeRec) //odbgc:alloc-ok within the capacity ensured above
	return Slot(len(h.slots) - 1)
}

// growIndex extends the OID index to cover oid. The index grows at
// append's rate rather than by doubling, so its slack stays a small
// fraction of its 4 bytes per OID.
//
//odbgc:hotpath
func (h *Heap) growIndex(oid OID) {
	h.index = append(h.index, make([]Slot, int(oid)+1-len(h.index))...) //odbgc:alloc-ok amortized growth of the OID index
}

// residentAdd appends slot s to p's resident list, recording its position.
//
//odbgc:hotpath
func (h *Heap) residentAdd(p *Partition, s Slot) {
	h.slots[s].resIdx = int32(len(p.resident))
	p.resident = append(p.resident, s) //odbgc:alloc-ok amortized slice growth
}

// residentRemove removes slot s from p's resident list by swapping the
// last element into its position.
//
//odbgc:hotpath
func (h *Heap) residentRemove(p *Partition, s Slot) {
	i := h.slots[s].resIdx
	last := int32(len(p.resident) - 1)
	moved := p.resident[last]
	p.resident[i] = moved
	h.slots[moved].resIdx = i
	p.resident = p.resident[:last]
	h.slots[s].resIdx = -1
}

// placeFor chooses the partition for a new object of the given size, or nil
// if no resident partition has room: the parent's partition when the object
// fits there, otherwise the partition with the most free space (ties toward
// the lowest ID). The reserved empty partition is never an allocation
// target. Every partition has the same capacity, so "most free" is "least
// used"; the scan over the partitions runs only when an allocation misses
// its parent's partition, a few percent of allocations on the paper's
// workload.
//
//odbgc:hotpath
func (h *Heap) placeFor(size int64, parent Slot) *Partition {
	partBytes := h.cfg.PartitionBytes()
	if pp := h.PartitionOf(parent); pp != NoPartition && pp != h.empty {
		p := h.parts[pp]
		if partBytes-p.used >= size {
			return p
		}
	}
	var best *Partition
	for _, p := range h.parts {
		if p.ID != h.empty && (best == nil || p.used < best.used) {
			best = p
		}
	}
	if best != nil && partBytes-best.used >= size {
		return best
	}
	return nil
}

// WriteField stores target into field f of the object in slot src and
// returns the previous value. It is the raw heap mutation; the write
// barrier in package gc wraps it with remembered-set and policy
// bookkeeping. It must not allocate (pinned by TestWriteFieldZeroAllocs).
//
//odbgc:hotpath
func (h *Heap) WriteField(src Slot, f int, target Slot) Slot {
	r := &h.slots[src]
	if r.part < 0 {
		panic(fmt.Sprintf("heap: WriteField(slot %d): no such object", src)) //odbgc:alloc-ok cold panic path
	}
	if f < 0 || f >= int(r.nfields) {
		panic(fmt.Sprintf("heap: WriteField(%d): field %d out of range [0,%d)", r.oid, f, r.nfields)) //odbgc:alloc-ok cold panic path
	}
	if target != NilSlot && !h.Resident(target) {
		panic(fmt.Sprintf("heap: WriteField(%d): target slot %d holds no object", r.oid, target)) //odbgc:alloc-ok cold panic path
	}
	fs := h.fields[r.part]
	i := r.fieldOff + uint32(f)
	old := fs[i]
	fs[i] = target
	return old
}

// Move relocates the object in slot s into partition dst by bump
// allocation, updating its partition and address, and appends its fields
// to dst's field arena. The collector uses Move to evacuate live objects
// into the empty partition. It panics if dst lacks room, which would mean
// the collector copied more than one partition's worth of data into one
// partition.
//
//odbgc:hotpath
func (h *Heap) Move(s Slot, dst PartitionID) {
	r := &h.slots[s]
	if r.part < 0 {
		panic(fmt.Sprintf("heap: Move(slot %d): no such object", s)) //odbgc:alloc-ok cold panic path
	}
	to := h.parts[dst]
	size := int64(r.size)
	if h.cfg.PartitionBytes()-to.used < size {
		panic(fmt.Sprintf("heap: Move(%d): partition %d has %d free, need %d", //odbgc:alloc-ok cold panic path
			r.oid, dst, h.cfg.PartitionBytes()-to.used, size))
	}
	h.residentRemove(h.parts[r.part], s)
	// The source partition's bump offsets are not decremented: evacuation
	// frees its bytes and fields only when the whole partition is reset
	// afterwards.
	off := len(h.fields[dst])
	h.fields[dst] = append(h.fields[dst], h.Fields(s)...) //odbgc:alloc-ok amortized growth of dst's field arena, which keeps its capacity across resets
	r.fieldOff = uint32(off)
	r.part = int32(dst)
	r.addr = to.Base + Addr(to.used)
	to.used += size
	h.occupied += size
	h.residentAdd(to, s)
}

// Discard removes the dead object in slot s from the heap and frees the
// slot; the next Alloc reuses it. Like Move, it gives neither bytes nor
// fields back to the source partition; ResetPartition does. The caller
// guarantees no resident object still points to s: fields hold slots, so
// a pointer to a discarded object would name whatever object reuses the
// slot.
//
//odbgc:hotpath
func (h *Heap) Discard(s Slot) {
	r := &h.slots[s]
	if r.part < 0 {
		panic(fmt.Sprintf("heap: Discard(slot %d): no such object", s)) //odbgc:alloc-ok cold panic path
	}
	if r.root {
		panic(fmt.Sprintf("heap: Discard(%d): object is a root", r.oid)) //odbgc:alloc-ok cold panic path
	}
	h.residentRemove(h.parts[r.part], s)
	h.index[r.oid] = NilSlot
	*r = freeRec
	h.free = append(h.free, s) //odbgc:alloc-ok amortized free-stack growth, bounded by the slot storage
}

// ResetPartition marks a fully evacuated partition as empty again,
// reclaiming its bytes and its field arena. It panics if any object is
// still resident there.
func (h *Heap) ResetPartition(id PartitionID) {
	p := h.parts[id]
	if len(p.resident) != 0 {
		panic(fmt.Sprintf("heap: ResetPartition(%d): %d objects still resident", id, len(p.resident)))
	}
	h.occupied -= p.used
	p.used = 0
	h.fields[id] = h.fields[id][:0]
}

// PageRange returns the first and last page touched by the byte range
// [addr, addr+size).
func (h *Heap) PageRange(addr Addr, size int64) (first, last PageID) {
	first = PageID(int64(addr) >> h.pageShift)
	last = PageID((int64(addr) + size - 1) >> h.pageShift)
	return first, last
}

// Pages returns the page range occupied by the object in slot s.
func (h *Heap) Pages(s Slot) (first, last PageID) {
	r := &h.slots[s]
	return h.PageRange(r.addr, int64(r.size))
}

// Footprint counts the memory a table or a scratch space holds, from
// slice capacities (maps by their entry counts). Tests use it to bound the
// simulator's memory by the resident objects rather than by every OID a
// trace has issued.
type Footprint struct {
	// Bytes is the capacity held, in bytes.
	Bytes int64
	// Slots is the capacity of the largest per-object table or scratch
	// list, in entries.
	Slots int
	// ArenaWords is the field arenas' capacity in words, summed over
	// partitions.
	ArenaWords int
}

// Footprint reports the memory the heap's tables hold.
func (h *Heap) Footprint() Footprint {
	const slotBytes, keyBytes = int64(unsafe.Sizeof(slotRec{})), int64(unsafe.Sizeof(oidSlot{}))
	f := Footprint{
		Bytes: 4*int64(cap(h.index)) + slotBytes*int64(cap(h.slots)) + keyBytes*int64(cap(h.sortKeys)) +
			4*int64(cap(h.free)+cap(h.rootList)) + 8*int64(cap(h.parts)) + 24*int64(cap(h.fields)),
		Slots: max(cap(h.slots), cap(h.sortKeys)),
	}
	for i, p := range h.parts {
		f.Bytes += int64(unsafe.Sizeof(*p)) + 4*int64(cap(p.resident)) + 4*int64(cap(h.fields[i]))
		f.ArenaWords += cap(h.fields[i])
	}
	return f
}

// LiveFieldWords reports the words resident objects' fields take in the
// field arenas, summed over every resident object. Tests use it to bound
// the arenas' capacity.
func (h *Heap) LiveFieldWords() int {
	n := 0
	for _, p := range h.parts {
		for _, s := range p.resident {
			n += int(h.slots[s].nfields)
		}
	}
	return n
}
