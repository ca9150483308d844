package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"odbgc/internal/heap"
	"odbgc/internal/segfile"
)

// fuzzSeeds returns packed encodings that cover every kind and the
// conditional create layouts, the starting corpus for the byte-level
// fuzz targets: each event alone and cut in half, the whole sequence,
// and hand-made faults (no bytes, kinds 0 and 7, a read of OID 6
// followed by a cut create, an unterminated varint).
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, e := range bufferTestEvents() {
		enc := encodeEvents(tb, e)
		seeds = append(seeds, enc, enc[:len(enc)/2])
	}
	all := encodeEvents(tb, bufferTestEvents()...)
	seeds = append(seeds, all, []byte{}, []byte{0}, []byte{7}, []byte{99, 1, 2}, []byte{byte(KindCreate), 0xFF})
	return seeds
}

// FuzzDecodeEvent checks the chunk reader's structural walk against the
// tests' checked decoder on arbitrary payload bytes. Neither may panic,
// and the decoder never over-consumes. The walk must accept exactly
// the payloads the decoder reads to the end with every event's operands
// inside the 32-bit range (checkOperands), counting the events the
// decoder finds, and those events must re-encode, through the writers'
// encoder, to a payload that replays them.
func FuzzDecodeEvent(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, n, err := decodeEvent(data, heap.NilOID); err == nil && (n <= 0 || n > len(data)) {
			t.Fatalf("decodeEvent consumed %d of %d bytes", n, len(data))
		}
		events, whole := decodeAll(data)
		inRange := whole
		for _, e := range events {
			inRange = inRange && checkOperands(e) == nil
		}
		n, err := walkPayload(data)
		if (err == nil) != inRange {
			t.Fatalf("walk err = %v, but the decoder read the whole payload: %v, every operand in range: %v (%+v)", err, whole, inRange, events)
		}
		if err != nil {
			return
		}
		if n != len(events) {
			t.Fatalf("walk counted %d events, the decoder %d", n, len(events))
		}
		var valid []Event
		for _, e := range events {
			if e.Validate() == nil {
				valid = append(valid, e)
			}
		}
		var got collectSink
		if err := replayPacked(encodeEvents(t, valid...), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.events, valid) {
			t.Fatalf("round trip diverged:\n  in %+v\n out %+v", valid, got.events)
		}
	})
}

// FuzzChunkCodec checks the chunked codec from both directions. Reading:
// the chunk reader must never panic on arbitrary bytes — whether raw, or
// prefixed with the chunked magic so header parsing and CRC verification
// are reached — it must error or reach the end segment. The trusted-bytes
// boundary: the bytes framed as one CRC-valid chunk reach Next's
// structural walk, which must either refuse them or leave a chunk whose
// unchecked replay delivers exactly the events the tests' checked
// decoder finds, with the header declaring that count and that count
// plus one. Writing: any event stream the packed decoder accepts must
// survive a chunked round trip with tiny chunks (forcing many chunk
// boundaries), bit-identically.
func FuzzChunkCodec(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	// Whole files: one closed by its end segment, and the same file cut
	// before it.
	var file bytes.Buffer
	cw := NewChunkWriter(&file, 1, 32)
	for _, e := range bufferTestEvents() {
		if err := cw.Emit(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(file.Bytes())
	f.Add(file.Bytes()[:file.Len()-chunkHeaderSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		// Reader robustness on hostile input.
		for _, stream := range [][]byte{data, append(append([]byte{}, chunkMagic[:]...), data...)} {
			cr := NewChunkReader(bytes.NewReader(stream))
			var c Chunk
			for i := 0; i < 1000; i++ {
				if err := cr.Next(&c); err != nil {
					break
				}
				if err := c.Replay(&benchSink{}); err != nil {
					t.Fatalf("decoded chunk failed to replay: %v", err)
				}
			}
		}

		// The events the checked decoder finds, up to the first error.
		var want collectSink
		var whole bool
		want.events, whole = decodeAll(data)

		// The trusted-bytes boundary.
		for _, count := range []int{len(want.events), len(want.events) + 1} {
			var framed bytes.Buffer
			if err := segfile.NewWriter(&framed, &chunkFormat).Write(uint32(count), 1, data); err != nil {
				t.Fatal(err)
			}
			cr := NewChunkReader(&framed)
			var c Chunk
			if err := cr.Next(&c); err != nil {
				continue
			}
			var got collectSink
			if err := c.Replay(&got); err != nil {
				t.Fatalf("checked chunk failed to replay: %v", err)
			}
			if c.Len() != len(got.events) || !reflect.DeepEqual(got.events, want.events) {
				t.Fatalf("header count %d: Next accepted a chunk of Len %d whose replay delivered %d events, want the %d decodeEvent finds:\n got %+v\nwant %+v",
					count, c.Len(), len(got.events), len(want.events), got.events, want.events)
			}
		}

		// Round trip of any stream the packed decoder accepts.
		if !whole {
			return
		}
		var out bytes.Buffer
		cw := NewChunkWriter(&out, 0x5eed, 32)
		for _, e := range want.events {
			if err := cw.Emit(e); err != nil {
				// Raw fuzz bytes can decode to events that emit-time
				// validation rejects (e.g. a read with a nil OID, or an
				// operand past 32 bits); a real writer never produces
				// them, so they are out of scope.
				return
			}
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		cr := NewChunkReader(bytes.NewReader(out.Bytes()))
		var got collectSink
		var c Chunk
		for {
			err := cr.Next(&c)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("read-back of freshly written chunks: %v", err)
			}
			if err := c.Replay(&got); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got.events, want.events) {
			t.Fatalf("chunked round trip diverged:\n  in %+v\n out %+v", want.events, got.events)
		}
	})
}

// fuzzEvents turns fuzz bytes into up to 64 events with arbitrary field
// values: per event a kind byte (so kinds 0 and 6-255 occur), then every
// field, whether its kind reads it or not, from a tagged value — a
// small or 32-bit number, a full 64-bit one, or one of the values at
// the edges of the checks. Missing bytes read as zero.
func fuzzEvents(data []byte) []Event {
	next := func(n int) uint64 {
		var b [8]byte
		copy(b[:n], data)
		data = data[min(n, len(data)):]
		return binary.LittleEndian.Uint64(b[:])
	}
	edges := [...]int64{0, 1, -1, math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32 + 1, math.MinInt64, math.MaxInt64}
	value := func() int64 {
		switch tag := next(1); tag % 4 {
		case 0:
			return int64(next(1))
		case 1:
			return int64(next(4))
		case 2:
			return edges[tag/4%uint64(len(edges))]
		default:
			return int64(next(8))
		}
	}
	var events []Event
	for len(data) > 0 && len(events) < 64 {
		e := Event{Kind: Kind(next(1))}
		e.OID = heap.OID(value())
		e.Size = value()
		e.NFields = int(value())
		e.Parent = heap.OID(value())
		e.ParentField = int(value())
		e.Field = int(value())
		e.Target = heap.OID(value())
		events = append(events, e)
	}
	return events
}

// canonical is e as a replay delivers it: the fields e's kind encodes,
// and zero in the rest.
func canonical(e Event) Event {
	c := Event{Kind: e.Kind, OID: e.OID}
	switch e.Kind {
	case KindCreate:
		c.Size, c.NFields, c.Parent = e.Size, e.NFields, e.Parent
		if e.Parent != heap.NilOID {
			c.ParentField = e.ParentField
		}
	case KindWrite:
		c.Field, c.Target = e.Field, e.Target
	case KindRoot, KindRead, KindModify:
	}
	return c
}

// FuzzEventCodec feeds arbitrary events, valid and invalid, through
// Buffer.Emit and through a ChunkWriter with tiny chunks. Both writers
// must accept the same events, a rejection must leave each writer's
// events and delta base as they were, and the accepted events must
// replay bit-identically, as canonical reports them, from the Buffer
// and from the file.
func FuzzEventCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 5, 0, 100, 0, 4, 0, 0})
	f.Add(bytes.Repeat([]byte{3, 0, 7, 4, 0, 9}, 8))
	f.Add([]byte{4, 3, 1, 2, 2, 2, 2, 2, 2, 0, 9, 2, 0x14})
	f.Add([]byte{1, 1, 0xff, 0xff, 0xff, 0xff, 0, 1, 0, 3, 0, 1, 0x21, 0, 0, 0, 0, 0x1e})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Buffer
		var file bytes.Buffer
		w := NewChunkWriter(&file, 0x5eed, 16)
		var want []Event
		for _, e := range fuzzEvents(data) {
			errB, errW := b.Emit(e), w.Emit(e)
			if (errB == nil) != (errW == nil) {
				t.Fatalf("Emit(%+v): Buffer = %v, ChunkWriter = %v", e, errB, errW)
			}
			if errB == nil {
				want = append(want, canonical(e))
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if b.Len() != int64(len(want)) || w.Count() != int64(len(want)) {
			t.Fatalf("Buffer holds %d events, the writer counted %d, want %d", b.Len(), w.Count(), len(want))
		}
		var fromBuf collectSink
		if err := b.Replay(&fromBuf); err != nil {
			t.Fatal(err)
		}
		fromFile, _ := readAllChunks(t, file.Bytes())
		if !reflect.DeepEqual(fromBuf.events, want) || !reflect.DeepEqual(fromFile, want) {
			t.Fatalf("replays diverged from the accepted events:\nbuffer %+v\n  file %+v\n  want %+v", fromBuf.events, fromFile, want)
		}
	})
}
