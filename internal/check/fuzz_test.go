package check_test

import (
	"testing"

	"odbgc/internal/check"
	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
)

// FuzzAuditedSim drives random valid event streams through a fully
// audited simulator: every collection and every fourth event runs the
// complete invariant catalog, so any sequence of operations that drifts
// the incremental structures from ground truth fails the fuzz run. The
// fuzz input is decoded into structurally valid events only (resident
// parents, in-range fields), so every Emit error is a real bug.
func FuzzAuditedSim(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 8, 0, 0, 0, 9, 1, 0, 1, 0, 0, 0, 3, 0, 0, 1})
	f.Add([]byte{
		0, 30, 2, 0, 1, 0, 0, 0, 0, 12, 1, 0, 3, 1, 0, 1,
		0, 5, 2, 1, 3, 0, 1, 0, 2, 0, 0, 0, 4, 1, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := sim.Config{
			Policy:            core.NameMutatedPartition,
			Seed:              1,
			Heap:              heap.Config{PageSize: 512, PartitionPages: 4, ReserveEmpty: true},
			TriggerOverwrites: 8,
			Audit:             check.Audited(4),
		}
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		h := s.Heap()

		next := heap.OID(1)
		var created []heap.OID
		nfields := map[heap.OID]int{}
		// pick returns a created OID that is still resident, pruning
		// collected ones, or NilOID when none remain.
		pick := func(sel int) heap.OID {
			for len(created) > 0 {
				i := sel % len(created)
				if h.Contains(created[i]) {
					return created[i]
				}
				created[i] = created[len(created)-1]
				created = created[:len(created)-1]
			}
			return heap.NilOID
		}

		for i := 0; i+4 <= len(data); i += 4 {
			op, a, b, c := data[i]%5, int(data[i+1]), int(data[i+2]), int(data[i+3])
			var e trace.Event
			switch op {
			case 0: // create, optionally attached to a resident parent
				nf := a % 4
				e = trace.Event{Kind: trace.KindCreate, OID: next,
					Size: int64(16 + (b%48)*8), NFields: nf}
				if parent := pick(c); parent != heap.NilOID && nfields[parent] > 0 && a%3 != 0 {
					e.Parent = parent
					e.ParentField = b % nfields[parent]
				}
				nfields[next] = nf
				created = append(created, next)
				next++
			case 1: // root
				oid := pick(a)
				if oid == heap.NilOID {
					continue
				}
				e = trace.Event{Kind: trace.KindRoot, OID: oid}
			case 2: // read
				oid := pick(a)
				if oid == heap.NilOID {
					continue
				}
				e = trace.Event{Kind: trace.KindRead, OID: oid}
			case 3: // pointer write, target possibly nil
				src := pick(a)
				if src == heap.NilOID || nfields[src] == 0 {
					continue
				}
				e = trace.Event{Kind: trace.KindWrite, OID: src, Field: b % nfields[src]}
				if c%3 != 0 {
					e.Target = pick(c)
				}
			case 4: // data modify
				oid := pick(a)
				if oid == heap.NilOID {
					continue
				}
				e = trace.Event{Kind: trace.KindModify, OID: oid}
			}
			if err := s.Emit(e); err != nil {
				t.Fatalf("event %d (%s): %v", i/4, e.Kind, err)
			}
		}
		if err := s.Audit(); err != nil {
			t.Fatalf("final audit: %v", err)
		}
		s.Finish()
	})
}
