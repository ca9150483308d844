package pagebuf

import "fmt"

// CheckInvariants verifies the buffer's frame-arena structure — the LRU
// list and the page table — and then its server's, and returns the
// first violation found, or nil.
//
// The invariants checked:
//
//   - the LRU list walked from the sentinel (frame 0) returns to it with
//     mutually consistent prev/next links and no cycle;
//   - it holds exactly Len() frames, and they are frames 1..Len(), the
//     ones in use;
//   - every listed frame's page resolves back to that frame through the
//     page table, so no two frames cache the same page;
//   - the page table names a frame only for a page that frame caches.
//
// A violation in the server's structure is reported with the prefix
// "server tier: ". It is O(capacity + pages) and intended for the audit
// layer (internal/check) and tests.
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
		if got := b.frameOf(page); got != int32(i) {
			return fmt.Errorf("pagebuf: frame %d caches page %d but the page table resolves it to frame %d", i, page, got)
		}
	}
	for p, pg := range b.pages {
		if i := pg.frame; i != 0 && (i < 0 || int(i) > b.n || b.frames[i].page != PageID(p)) {
			return fmt.Errorf("pagebuf: page table maps page %d to frame %d, which does not cache it", p, i)
		}
	}
	if b.server != nil {
		if err := b.server.CheckInvariants(); err != nil {
			return fmt.Errorf("server tier: %w", err)
		}
	}
	return nil
}
