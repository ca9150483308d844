package heap

import "testing"

// slotModel is FuzzHeapSlots' reference: each resident OID's fields, by
// OID, in plain maps, plus the resident OIDs in a slice for picking.
type slotModel struct {
	fields map[OID][]OID
	roots  map[OID]bool
	oids   []OID
	next   OID
}

func (m *slotModel) pick(b byte) OID { return m.oids[int(b)%len(m.oids)] }

func (m *slotModel) remove(oid OID) {
	for i, o := range m.oids {
		if o == oid {
			m.oids[i] = m.oids[len(m.oids)-1]
			m.oids = m.oids[:len(m.oids)-1]
			break
		}
	}
	delete(m.fields, oid)
}

// FuzzHeapSlots drives random sequences of Alloc, WriteField, Move,
// Discard and ResetPartition against a map-based model. After every
// operation the heap's invariants must hold — including the OID index
// round-trip, the free list, and the per-partition field arenas — and
// every field must read back the OID last written to it. Small
// partitions make moves, discards, slot reuse and partition resets, which
// truncate a field arena, frequent.
func FuzzHeapSlots(f *testing.F) {
	f.Add([]byte{0, 3, 4, 0, 5, 2, 1, 0, 1, 3, 0, 0, 2, 1, 0, 4, 0, 0})
	f.Add([]byte{0, 200, 131, 0, 17, 4, 0, 90, 5, 1, 1, 2, 1, 0, 7, 3, 1, 0, 2, 0, 0, 2, 1, 0, 4, 0, 0, 0, 9, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		h, err := New(Config{PageSize: 128, PartitionPages: 2, ReserveEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		m := &slotModel{fields: map[OID][]OID{}, roots: map[OID]bool{}, next: 1}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0]%5, ops[1], ops[2]
			if len(m.oids) == 0 {
				op = 0
			}
			switch op {
			case 0: // Alloc, sometimes near a parent, sometimes rooted
				oid := m.next
				m.next++
				parent := NilSlot
				if len(m.oids) > 0 && a&1 == 1 {
					parent = h.Lookup(m.pick(b))
				}
				nfields := int(b % 6)
				s, _, err := h.Alloc(oid, 8+int64(a%96), nfields, parent)
				if err != nil {
					t.Fatalf("Alloc(%d): %v", oid, err)
				}
				m.fields[oid] = make([]OID, nfields)
				m.oids = append(m.oids, oid)
				if a&0x80 != 0 {
					h.AddRoot(s)
					m.roots[oid] = true
				}
			case 1: // WriteField to a random target or nil
				src := m.pick(a)
				if len(m.fields[src]) == 0 {
					continue
				}
				fi := int(b) % len(m.fields[src])
				target := NilOID
				if b&0x80 == 0 {
					target = m.pick(b >> 1)
				}
				old := h.WriteField(h.Lookup(src), fi, h.Lookup(target))
				if got := h.OID(old); got != m.fields[src][fi] {
					t.Fatalf("WriteField(%d.%d) returned %d, model holds %d", src, fi, got, m.fields[src][fi])
				}
				m.fields[src][fi] = target
			case 2: // Move a partition's residents into the empty one, as an evacuation does
				victim := h.PartitionOf(h.Lookup(m.pick(a)))
				dst := h.EmptyPartition()
				if victim == dst {
					continue
				}
				for _, s := range append([]Slot(nil), h.Partition(victim).Slots()...) {
					h.Move(s, dst)
				}
				h.ResetPartition(victim)
				h.SetEmptyPartition(victim)
			case 3: // Discard a non-root, after nulling every pointer to it
				oid := m.pick(a)
				if m.roots[oid] {
					continue
				}
				for src, fs := range m.fields {
					for fi, tgt := range fs {
						if tgt == oid {
							h.WriteField(h.Lookup(src), fi, NilSlot)
							fs[fi] = NilOID
						}
					}
				}
				h.Discard(h.Lookup(oid))
				m.remove(oid)
			case 4: // ResetPartition of a partition whose objects were all discarded
				p := PartitionID(int(a) % h.NumPartitions())
				if p == h.EmptyPartition() || h.Partition(p).Len() != 0 {
					continue
				}
				h.ResetPartition(p)
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("after op %d: %v", op, err)
			}
			if h.Len() != len(m.fields) {
				t.Fatalf("heap holds %d objects, model %d", h.Len(), len(m.fields))
			}
			for oid, fs := range m.fields {
				s := h.Lookup(oid)
				if s == NilSlot || h.OID(s) != oid || h.NumFields(s) != len(fs) {
					t.Fatalf("OID %d resolves to slot %d holding OID %d with %d fields, model has %d", oid, s, h.OID(s), h.NumFields(s), len(fs))
				}
				for fi, want := range fs {
					if got := h.OID(h.Fields(s)[fi]); got != want {
						t.Fatalf("field %d.%d reads %d, last written %d", oid, fi, got, want)
					}
				}
			}
		}
	})
}
