package pagebuf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// pagesMRU returns the cached pages most-recently-used first; tests use
// it to audit the intrusive frame list against reference models.
func (b *Buffer) pagesMRU() []PageID {
	var out []PageID
	for i := b.frames[0].next; i != 0; i = b.frames[i].next {
		out = append(out, b.frames[i].page)
	}
	return out
}

// refBuffer is a deliberately naive reference implementation of an LRU
// write-back buffer, used as the model in model-based property tests.
type refBuffer struct {
	capacity int
	order    []PageID // index 0 = most recently used
	dirty    map[PageID]bool
	onDisk   map[PageID]bool
	reads    int64
	writes   int64
}

func newRef(capacity int) *refBuffer {
	return &refBuffer{
		capacity: capacity,
		dirty:    make(map[PageID]bool),
		onDisk:   make(map[PageID]bool),
	}
}

func (r *refBuffer) touch(p PageID, write bool) {
	for i, q := range r.order {
		if q == p {
			r.order = append(r.order[:i], r.order[i+1:]...)
			r.order = append([]PageID{p}, r.order...)
			if write {
				r.dirty[p] = true
			}
			return
		}
	}
	if r.onDisk[p] {
		r.reads++
	}
	if len(r.order) >= r.capacity {
		victim := r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		if r.dirty[victim] {
			r.writes++
			r.onDisk[victim] = true
		}
		delete(r.dirty, victim)
	}
	r.order = append([]PageID{p}, r.order...)
	if write {
		r.dirty[p] = true
	}
}

// TestBufferMatchesReferenceModel drives random access sequences through
// the buffer and the reference model and requires identical cached-page
// sets and identical I/O counts. With high set, the page IDs straddle
// 2^20, so the page table grows past a million pages.
func TestBufferMatchesReferenceModel(t *testing.T) {
	f := func(seed int64, capRaw uint8, nOps uint16, high bool) bool {
		capacity := int(capRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		b, err := New(capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(capacity)
		base := PageID(0)
		if high {
			base = 1<<20 - PageID(capacity)
		}

		for i := 0; i < int(nOps%600)+1; i++ {
			p := base + PageID(rng.Intn(3*capacity)) // enough aliasing to force evictions
			write := rng.Intn(2) == 0
			if write {
				b.Write(p, ActorApp)
			} else {
				b.Read(p, ActorApp)
			}
			ref.touch(p, write)
		}

		st := b.Stats().App()
		if st.ReadIOs != ref.reads || st.WriteIOs != ref.writes {
			t.Errorf("IOs (r=%d,w=%d), model (r=%d,w=%d)", st.ReadIOs, st.WriteIOs, ref.reads, ref.writes)
			return false
		}
		if b.Len() != len(ref.order) {
			t.Errorf("Len %d, model %d", b.Len(), len(ref.order))
			return false
		}
		// The intrusive list must reproduce the model's exact recency
		// order, not just its membership.
		for i, p := range b.pagesMRU() {
			if ref.order[i] != p {
				t.Errorf("recency order diverged at %d: buffer %v, model %v", i, b.pagesMRU(), ref.order)
				return false
			}
		}
		if err := b.CheckInvariants(); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferNeverExceedsCapacity checks the frame-count invariant.
func TestBufferNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64, capRaw uint8, nOps uint16) bool {
		capacity := int(capRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		b, err := New(capacity)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(nOps%400)+1; i++ {
			b.Write(PageID(rng.Intn(50)), Actor(rng.Intn(2)))
			if b.Len() > capacity {
				t.Errorf("Len %d exceeds capacity %d", b.Len(), capacity)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUInclusionProperty: LRU is a stack algorithm, so on any access
// sequence a larger buffer's cached set is a superset of a smaller
// buffer's, and misses are monotone non-increasing in capacity (no Belady
// anomaly). This is a strong end-to-end check of the LRU implementation.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8, nOps uint16) bool {
		small := int(capRaw%10) + 1
		big := small + 1 + int(capRaw%3)
		rng := rand.New(rand.NewSource(seed))
		bs, err := New(small)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := New(big)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(nOps%500)+1; i++ {
			p := PageID(rng.Intn(3 * big))
			write := rng.Intn(2) == 0
			if write {
				bs.Write(p, ActorApp)
				bb.Write(p, ActorApp)
			} else {
				bs.Read(p, ActorApp)
				bb.Read(p, ActorApp)
			}
			// Inclusion: everything the small buffer holds, the big
			// buffer holds.
			for _, p := range bs.pagesMRU() {
				if !bb.Contains(p) {
					t.Errorf("inclusion violated for page %d", p)
					return false
				}
			}
		}
		if bb.Stats().App().Misses > bs.Stats().App().Misses {
			t.Errorf("Belady anomaly: %d misses at capacity %d vs %d at %d",
				bb.Stats().App().Misses, big, bs.Stats().App().Misses, small)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReadIOsNeverExceedPriorWriteIOs: a page can only be read from disk
// after having been written there, so cumulative reads of any run never
// exceed cumulative prior writes plus... in fact each distinct on-disk page
// got there via a dirty eviction, so ReadIOs across a run can exceed
// WriteIOs only by re-reading; the invariant that always holds is that the
// first read of each page is preceded by a write-back of it. We check the
// coarser monotone consequence: ReadIOs > 0 implies WriteIOs > 0.
func TestReadImpliesPriorWriteBack(t *testing.T) {
	f := func(seed int64, nOps uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		b, err := New(3)
		if err != nil {
			t.Fatal(err)
		}
		sawWrite := false
		for i := 0; i < int(nOps%300)+1; i++ {
			b.Read(PageID(rng.Intn(10)), ActorApp)
			st := b.Stats().App()
			if st.WriteIOs > 0 {
				sawWrite = true
			}
			if st.ReadIOs > 0 && !sawWrite {
				t.Error("disk read before any write-back")
				return false
			}
		}
		// Pure reads of fresh pages never persist anything, so in this
		// read-only workload no I/O at all may occur.
		st := b.Stats().App()
		return st.ReadIOs == 0 && st.WriteIOs == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// actorRef is a naive per-actor LRU write-back buffer with backing-store
// hooks, the reference model for the tiered client/server composition:
// a client actorRef whose fetch/writeBack feed a server actorRef.
type actorRef struct {
	capacity  int
	order     []PageID // index 0 = most recently used
	dirty     map[PageID]bool
	onDisk    map[PageID]bool
	stats     [numActors]ActorStats
	fetch     func(PageID, Actor)
	writeBack func(PageID, Actor)
}

func newActorRef(capacity int) *actorRef {
	return &actorRef{
		capacity: capacity,
		dirty:    make(map[PageID]bool),
		onDisk:   make(map[PageID]bool),
	}
}

func (r *actorRef) touch(p PageID, write bool, a Actor) {
	for i, q := range r.order {
		if q == p {
			r.stats[a].Hits++
			r.order = append(r.order[:i], r.order[i+1:]...)
			r.order = append([]PageID{p}, r.order...)
			if write {
				r.dirty[p] = true
			}
			return
		}
	}
	r.stats[a].Misses++
	if r.onDisk[p] {
		r.stats[a].ReadIOs++
		if r.fetch != nil {
			r.fetch(p, a)
		}
	}
	if len(r.order) >= r.capacity {
		victim := r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		if r.dirty[victim] {
			r.stats[a].WriteIOs++
			r.onDisk[victim] = true
			if r.writeBack != nil {
				r.writeBack(victim, a)
			}
		}
		delete(r.dirty, victim)
	}
	r.order = append([]PageID{p}, r.order...)
	if write {
		r.dirty[p] = true
	}
}

// TestTieredMatchesReferenceModel drives random access sequences with
// both actors through the two-tier buffer and a nested pair of reference
// models, requiring identical per-actor network and disk statistics and
// identical cache contents at both tiers. Client evictions demote dirty
// pages to the server; client re-fetches promote them back — the hook
// ordering (fetch before the eviction the miss forces) must match
// exactly for the server's recency order to agree.
func TestTieredMatchesReferenceModel(t *testing.T) {
	f := func(seed int64, clientRaw, serverRaw uint8, nOps uint16) bool {
		clientCap := int(clientRaw%6) + 1
		serverCap := int(serverRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))

		tb, err := NewTiered(clientCap, serverCap)
		if err != nil {
			t.Fatal(err)
		}
		server := newActorRef(serverCap)
		client := newActorRef(clientCap)
		client.fetch = func(p PageID, a Actor) { server.touch(p, false, a) }
		client.writeBack = func(p PageID, a Actor) { server.touch(p, true, a) }

		for i := 0; i < int(nOps%500)+1; i++ {
			p := PageID(rng.Intn(3 * clientCap))
			write := rng.Intn(2) == 0
			actor := Actor(rng.Intn(2))
			if write {
				tb.Write(p, actor)
			} else {
				tb.Read(p, actor)
			}
			client.touch(p, write, actor)
		}

		check := func(tier string, got Stats, want [numActors]ActorStats) bool {
			if got.ByActor != want {
				t.Errorf("%s stats diverged:\n got %+v\nwant %+v", tier, got.ByActor, want)
				return false
			}
			return true
		}
		if !check("client/network", tb.Stats(), client.stats) {
			return false
		}
		if !check("server/disk", tb.Server().Stats(), server.stats) {
			return false
		}
		if got, want := tb.pagesMRU(), client.order; !pageOrderEqual(got, want) {
			t.Errorf("client order: got %v, want %v", got, want)
			return false
		}
		if got, want := tb.Server().pagesMRU(), server.order; !pageOrderEqual(got, want) {
			t.Errorf("server order: got %v, want %v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func pageOrderEqual(a, b []PageID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
