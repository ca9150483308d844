// Package pagebuf simulates the database I/O buffer that defines the
// paper's cost model (Section 4.2): a fixed number of page frames managed
// with LRU replacement and write-back updates. Every simulated page access
// goes through the buffer; the buffer counts the disk read and write I/O
// operations that result, attributed separately to the application and to
// the garbage collector.
//
// Because the buffer sits on the per-event fast path of every simulation,
// its structures are dense and allocation-free in steady state: page
// frames live in one arena slice linked by int32 indices into a circular
// LRU list, and one page table, a dense slice over the
// contiguous-from-zero page IDs the heap produces, holds each page's
// frame and whether it is on disk. Frame 0 is the list's sentinel and
// caches no page, so 0 means "no frame" in every link and page-table
// entry, as slot 0 does in internal/heap.
package pagebuf

import "fmt"

// PageID identifies one page of the simulated database address space.
type PageID int64

// Actor says on whose behalf a page access is performed. The paper reports
// application I/Os and collector I/Os separately (Table 2).
type Actor int

const (
	// ActorApp is the application mutator.
	ActorApp Actor = iota
	// ActorGC is the garbage collector.
	ActorGC
	numActors
)

// String returns "app" or "gc".
func (a Actor) String() string {
	switch a {
	case ActorApp:
		return "app"
	case ActorGC:
		return "gc"
	default:
		return fmt.Sprintf("Actor(%d)", int(a))
	}
}

// ActorStats counts one actor's buffer activity and resulting disk I/Os.
type ActorStats struct {
	// Hits is the number of accesses satisfied from the buffer.
	Hits int64
	// Misses is the number of accesses that did not find the page cached.
	Misses int64
	// ReadIOs is the number of disk reads performed (misses on pages that
	// exist on disk; a miss on a never-persisted page materializes the
	// page without a disk read).
	ReadIOs int64
	// WriteIOs is the number of disk writes performed (dirty evictions
	// caused by this actor's activity).
	WriteIOs int64
}

// Accesses returns the number of page accesses (reads + writes) issued:
// each one is a hit or a miss.
func (s ActorStats) Accesses() int64 { return s.Hits + s.Misses }

// IOs returns the actor's total disk operations.
func (s ActorStats) IOs() int64 { return s.ReadIOs + s.WriteIOs }

// Stats is a snapshot of buffer activity.
type Stats struct {
	// ByActor indexes ActorStats by Actor.
	ByActor [numActors]ActorStats
}

// App returns the application's counters.
func (s Stats) App() ActorStats { return s.ByActor[ActorApp] }

// GC returns the collector's counters.
func (s Stats) GC() ActorStats { return s.ByActor[ActorGC] }

// TotalIOs returns disk operations across all actors.
func (s Stats) TotalIOs() int64 {
	var n int64
	for _, a := range s.ByActor {
		n += a.IOs()
	}
	return n
}

// frame is one slot of the buffer's frame arena. prev/next link the
// frame into the circular LRU list that frames[0] closes; 0 means "no
// frame", so a zero frame is unlinked.
type frame struct {
	page       PageID
	prev, next int32
	dirty      bool
}

// pageState is one page's entry in the buffer's page table.
type pageState struct {
	frame  int32 // frame caching the page, 0 if none
	onDisk bool  // the page has a persistent copy
}

// Buffer is the simulated write-back LRU page buffer.
//
// In the client/server architecture a client buffer has a server: the
// client's ReadIOs and WriteIOs count network page transfers, each of
// which is an access to the server buffer, and the server's count disk
// operations. Both are split by actor as usual. The paper's
// single-process cost model is a buffer with no server.
type Buffer struct {
	// frames holds capacity+1 slots, allocated once. frames[0] caches no
	// page: it is the LRU list's sentinel, whose next is the most
	// recently used frame and prev the least. Frames 1..n hold the
	// cached pages; they fill in order, and once the buffer is full a
	// miss reuses the frame it evicts.
	frames []frame //odbgc:arena
	n      int     // cached page count
	// pages is the page table, indexed by PageID. The heap's addresses
	// run contiguously from zero (page = address / page size), so it is
	// one dense slice that grows by doubling as the database does (an
	// 8 GiB database of 8 KiB pages needs 8 MiB of table).
	pages []pageState
	stats Stats

	// server is the buffer behind this one, nil for a plain buffer. A
	// miss on a persisted page reads it from the server, and a dirty
	// eviction writes it there.
	server *Buffer
}

// New returns a buffer with room for capacity pages.
func New(capacity int) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("pagebuf: capacity %d must be positive", capacity)
	}
	return &Buffer{frames: make([]frame, capacity+1)}, nil
}

// NewTiered returns a client cache of clientPages pages in front of a
// server buffer of serverPages pages: the client/server architecture of
// the paper's related work. Simulated page accesses go to the returned
// client; Server returns the server, whose counters are the disk I/Os.
func NewTiered(clientPages, serverPages int) (*Buffer, error) {
	server, err := New(serverPages)
	if err != nil {
		return nil, fmt.Errorf("pagebuf: server tier: %w", err)
	}
	client, err := New(clientPages)
	if err != nil {
		return nil, fmt.Errorf("pagebuf: client tier: %w", err)
	}
	client.server = server
	return client, nil
}

// Server returns the buffer behind this one, nil for a plain buffer.
func (b *Buffer) Server() *Buffer { return b.server }

// Len returns the number of pages currently cached.
func (b *Buffer) Len() int { return b.n }

// Contains reports whether the page is currently cached.
func (b *Buffer) Contains(p PageID) bool { return b.frameOf(p) != 0 }

// frameOf returns the frame caching page p, 0 if none.
func (b *Buffer) frameOf(p PageID) int32 {
	if uint64(p) < uint64(len(b.pages)) {
		return b.pages[p].frame
	}
	return 0
}

// Stats returns a snapshot of the buffer's counters.
func (b *Buffer) Stats() Stats { return b.stats }

// ResetStats zeroes the I/O counters, and the server's, without touching
// cached pages. Warm-start measurement uses it to discard the build
// phase's I/O.
func (b *Buffer) ResetStats() {
	b.stats = Stats{}
	if b.server != nil {
		b.server.ResetStats()
	}
}

// Read accesses page p for reading on behalf of actor.
func (b *Buffer) Read(p PageID, actor Actor) { b.touch(p, false, actor) }

// Write accesses page p for writing on behalf of actor. The page becomes
// dirty; the disk write happens at eviction (write-back).
func (b *Buffer) Write(p PageID, actor Actor) { b.touch(p, true, actor) }

// ReadRange reads every page in [first, last] in ascending order.
func (b *Buffer) ReadRange(first, last PageID, actor Actor) {
	for p := first; p <= last; p++ {
		b.Read(p, actor)
	}
}

// WriteRange writes every page in [first, last] in ascending order.
func (b *Buffer) WriteRange(first, last PageID, actor Actor) {
	for p := first; p <= last; p++ {
		b.Write(p, actor)
	}
}

// unlink removes frame i from the LRU list.
//
//odbgc:hotpath
func (b *Buffer) unlink(i int32) {
	f := &b.frames[i]
	b.frames[f.prev].next = f.next
	b.frames[f.next].prev = f.prev
}

// pushFront links frame i at the most recently used end of the list.
//
//odbgc:hotpath
func (b *Buffer) pushFront(i int32) {
	head := b.frames[0].next
	b.frames[i].prev, b.frames[i].next = 0, head
	b.frames[head].prev = i
	b.frames[0].next = i
}

// touch is the buffer's hit/miss fast path: every simulated page access
// of the cost model lands here, so in steady state neither branch may
// allocate (the AllocsPerRun guards in alloc_test.go pin this).
//
//odbgc:hotpath
func (b *Buffer) touch(p PageID, write bool, actor Actor) {
	st := &b.stats.ByActor[actor]
	pg := b.pageAt(p)
	if i := pg.frame; i != 0 {
		st.Hits++
		if b.frames[0].next != i {
			b.unlink(i)
			b.pushFront(i)
		}
		if write {
			b.frames[i].dirty = true
		}
		return
	}

	st.Misses++
	if pg.onDisk {
		st.ReadIOs++
		if b.server != nil {
			b.server.Read(p, actor)
		}
	}
	// A miss on a never-persisted page materializes a fresh page in the
	// buffer with no disk read (write-allocate of newly created data).
	var i int32
	if b.n < len(b.frames)-1 {
		b.n++
		i = int32(b.n)
	} else {
		i = b.evict(actor)
	}
	b.frames[i] = frame{page: p, dirty: write}
	b.pushFront(i)
	pg.frame = i
}

// evict removes the least recently used page, charging a disk write to
// actor if the page is dirty, and returns its frame for reuse.
//
//odbgc:hotpath
func (b *Buffer) evict(actor Actor) int32 {
	i := b.frames[0].prev
	page := b.frames[i].page
	pg := &b.pages[page]
	pg.frame = 0
	if b.frames[i].dirty {
		b.stats.ByActor[actor].WriteIOs++
		pg.onDisk = true
		if b.server != nil {
			b.server.Write(page, actor)
		}
	}
	b.unlink(i)
	return i
}

// pageAt returns page p's entry in the page table, growing the table to
// cover p. It doubles, so growth cost amortizes to O(1) per page; new
// entries are zero: no frame, not persisted.
//
//odbgc:hotpath
func (b *Buffer) pageAt(p PageID) *pageState {
	if int(p) >= len(b.pages) {
		grown := make([]pageState, max(2*len(b.pages), 64, int(p)+1)) //odbgc:alloc-ok amortized page-table growth, doubling with the database
		copy(grown, b.pages)
		b.pages = grown
	}
	return &b.pages[p]
}
