package pagebuf

import (
	"strings"
	"testing"
)

// TestCheckInvariantsNamesCorruption corrupts one part of a healthy
// buffer at a time and requires the audit to name what broke.
func TestCheckInvariantsNamesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(b *Buffer)
		want    string
	}{
		{"prev link", func(b *Buffer) { b.frames[b.frames[0].next].prev = 3 }, "prev link"},
		{"index entry", func(b *Buffer) { b.pages[1].frame = 2 }, "page table resolves it to frame 2"},
		{"uncached index entry", func(b *Buffer) { b.pages[9].frame = 1 }, "page table maps page 9 to frame 1"},
		{"cached-page count", func(b *Buffer) { b.n++ }, "cached-page count 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := mustNew(t, 4)
			for p := PageID(1); p <= 3; p++ {
				b.Write(p, ActorApp)
			}
			b.Read(1, ActorApp)
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("healthy buffer: %v", err)
			}
			tc.corrupt(b)
			err := b.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants() = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestCheckInvariantsCoversServer corrupts the server behind a client
// buffer: the client's audit must reach it and name the tier.
func TestCheckInvariantsCoversServer(t *testing.T) {
	b, err := NewTiered(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for p := PageID(1); p <= 3; p++ {
		b.Write(p, ActorApp) // each miss ships the previous page to the server
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("healthy buffers: %v", err)
	}
	b.Server().pages[1].frame = 2
	err = b.CheckInvariants()
	if want := "server tier: pagebuf: frame 1 caches page 1 but the page table resolves it to frame 2"; err == nil || err.Error() != want {
		t.Fatalf("CheckInvariants() = %v, want %q", err, want)
	}
}
