package pagebuf

import "fmt"

// CheckInvariants verifies the buffer's frame-arena structure — the LRU
// list and the dense page index — and returns the first violation
// found, or nil.
//
// The invariants checked:
//
//   - the LRU list walked from the sentinel (frame 0) returns to it with
//     mutually consistent prev/next links and no cycle;
//   - it holds exactly Len() frames, and they are frames 1..Len(), the
//     ones in use;
//   - every listed frame's page resolves back to that frame through the
//     page index, so no two frames cache the same page;
//   - the page index holds no entry for a page that is not cached.
//
// It is O(capacity + index) and intended for the audit layer
// (internal/check) and tests.
func (b *Buffer) CheckInvariants() error {
	listed := make([]bool, len(b.frames))
	count := 0
	prev := int32(0)
	for i := b.frames[0].next; i != 0; i = b.frames[i].next {
		if i < 0 || int(i) >= len(b.frames) {
			return fmt.Errorf("pagebuf: LRU list links to frame %d outside the arena", i)
		}
		if listed[i] {
			return fmt.Errorf("pagebuf: LRU list revisits frame %d (cycle)", i)
		}
		if p := b.frames[i].prev; p != prev {
			return fmt.Errorf("pagebuf: frame %d prev link %d, want %d", i, p, prev)
		}
		listed[i] = true
		count++
		prev = i
	}
	if last := b.frames[0].prev; last != prev {
		return fmt.Errorf("pagebuf: sentinel's prev link %d, LRU list ends at frame %d", last, prev)
	}
	if count != b.n {
		return fmt.Errorf("pagebuf: cached-page count %d, LRU list holds %d", b.n, count)
	}
	for i := 1; i <= b.n; i++ {
		if !listed[i] {
			return fmt.Errorf("pagebuf: frame %d is in use but not on the LRU list", i)
		}
		page := b.frames[i].page
		if got := b.idx.get(page); got != int32(i) {
			return fmt.Errorf("pagebuf: frame %d caches page %d but the index resolves it to frame %d", i, page, got)
		}
	}
	for p, i := range b.idx.dense {
		if i != 0 && (i < 0 || int(i) > b.n || b.frames[i].page != PageID(p)) {
			return fmt.Errorf("pagebuf: index maps page %d to frame %d, which does not cache it", p, i)
		}
	}
	return nil
}

// CheckInvariants verifies both tiers of a client/server buffer.
func (t *Tiered) CheckInvariants() error {
	if err := t.client.CheckInvariants(); err != nil {
		return fmt.Errorf("client tier: %w", err)
	}
	if err := t.server.CheckInvariants(); err != nil {
		return fmt.Errorf("server tier: %w", err)
	}
	return nil
}
