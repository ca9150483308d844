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
		{"index entry", func(b *Buffer) { b.idx.dense[1] = 2 }, "index resolves it to frame 2"},
		{"uncached index entry", func(b *Buffer) { b.idx.dense[9] = 1 }, "index maps page 9 to frame 1"},
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
