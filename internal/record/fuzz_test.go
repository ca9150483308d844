package record

import (
	"bytes"
	"testing"

	"odbgc/internal/sim"
)

// FuzzRecordFile feeds arbitrary bytes to the reader, which must either
// decode cleanly or return an error — never panic, and never trust a
// hostile length or row count. Accepted inputs are additionally checked
// for internal consistency (resolved strings, aligned columns).
func FuzzRecordFile(f *testing.F) {
	rec := NewRecorder()
	r := rec.NewRun(MetaFromLabel("tables/Random/seed 1", "Random"))
	hooks := r.Hooks()
	hooks.Activation(sim.ActivationRecord{Seq: 1, Events: 10, Collected: true, Victim: 1, Dest: 2, GarbageBytes: 100})
	r.Finish(sim.Result{Policy: "Random", Events: 20,
		Samples: []sim.SampleRecord{{Seq: 1, Events: 10, OccupiedBytes: 2048, LiveBytes: 1024}}})
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-trailerSize])
	f.Add(valid[:9])
	f.Add([]byte{})
	f.Add(fileMagic[:])
	corrupt := bytes.Clone(valid)
	corrupt[len(fileMagic)+segHeaderSize] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Read(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
			return
		}
		// An accepted file must be self-consistent.
		for _, tab := range []*Table{&file.Runs, &file.Activations, &file.Samples} {
			rows := tab.Rows()
			for i := range tab.Cols {
				c := &tab.Cols[i]
				if len(c.I) != rows {
					t.Fatalf("%s column %s has %d values, table has %d rows", tab.Name, c.Name, len(c.I), rows)
				}
				if c.Str && len(c.S) != rows {
					t.Fatalf("%s string column %s unresolved", tab.Name, c.Name)
				}
			}
		}
		// Queries over an accepted file must not panic either.
		if _, err := file.Query(Query{Table: "activations", GroupBy: []string{"cause"}, Aggs: []Agg{{Op: "sum", Col: "garbage_bytes"}}}); err != nil {
			t.Fatalf("query over accepted file: %v", err)
		}
	})
}
