package pagebuf

import "fmt"

// CheckInvariants verifies the buffer's frame-arena structure — the
// replacement list, the free chain, and the dense page index — and
// returns the first violation found, or nil.
//
// The invariants checked:
//
//   - the replacement list walked from head reaches tail with mutually
//     consistent prev/next links, no cycle, and exactly Len() frames;
//   - every listed frame's page resolves back to that frame through the
//     page index (dense-index agreement), and no two frames cache the
//     same page;
//   - the free chain holds exactly capacity−Len() slots, disjoint from
//     the replacement list, so together they partition the arena;
//   - the page index holds no entry for a page that is not cached.
//
// It is O(capacity + index) and intended for the audit layer
// (internal/check) and tests.
func (b *Buffer) CheckInvariants() error {
	const (
		stateUnseen = iota
		stateListed
		stateFree
	)
	state := make([]uint8, len(b.frames))

	// Walk the replacement list.
	listed := 0
	prev := nilFrame
	for i := b.head; i != nilFrame; i = b.frames[i].next {
		if i < 0 || int(i) >= len(b.frames) {
			return fmt.Errorf("pagebuf: replacement list links to frame %d outside the arena", i)
		}
		f := &b.frames[i]
		if state[i] != stateUnseen {
			return fmt.Errorf("pagebuf: replacement list revisits frame %d (cycle)", i)
		}
		state[i] = stateListed
		if f.prev != prev {
			return fmt.Errorf("pagebuf: frame %d prev link %d, want %d", i, f.prev, prev)
		}
		listed++
		if listed > len(b.frames) {
			return fmt.Errorf("pagebuf: replacement list longer than the arena (%d frames)", len(b.frames))
		}
		prev = i
	}
	if b.tail != prev {
		return fmt.Errorf("pagebuf: tail is frame %d, list ends at %d", b.tail, prev)
	}
	if listed != b.n {
		return fmt.Errorf("pagebuf: cached-page count %d, replacement list holds %d", b.n, listed)
	}

	// Dense-index agreement for every cached page.
	for i := range b.frames {
		if state[i] != stateListed {
			continue
		}
		page := b.frames[i].page
		if got := b.idx.get(page); got != int32(i) {
			return fmt.Errorf("pagebuf: frame %d caches page %d but the index resolves it to frame %d", i, page, got)
		}
	}

	// Free chain: exactly the remaining slots, disjoint from the list.
	freeCount := 0
	for i := b.free; i != nilFrame; i = b.frames[i].next {
		if i < 0 || int(i) >= len(b.frames) {
			return fmt.Errorf("pagebuf: free chain links to frame %d outside the arena", i)
		}
		switch state[i] {
		case stateListed:
			return fmt.Errorf("pagebuf: frame %d is on both the replacement list and the free chain", i)
		case stateFree:
			return fmt.Errorf("pagebuf: free chain revisits frame %d (cycle)", i)
		}
		state[i] = stateFree
		freeCount++
	}
	if listed+freeCount != len(b.frames) {
		return fmt.Errorf("pagebuf: %d listed + %d free frames do not partition the %d-slot arena",
			listed, freeCount, len(b.frames))
	}

	// No index entry may name an uncached page.
	indexed := 0
	for p, i := range b.idx.dense {
		if i == nilFrame {
			continue
		}
		if int(i) >= len(b.frames) || state[i] != stateListed || b.frames[i].page != PageID(p) {
			return fmt.Errorf("pagebuf: index maps page %d to frame %d, which does not cache it", p, i)
		}
		indexed++
	}
	if indexed != listed {
		return fmt.Errorf("pagebuf: index holds %d pages, buffer caches %d", indexed, listed)
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
