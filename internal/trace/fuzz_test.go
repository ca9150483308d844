package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"odbgc/internal/segfile"
)

// fuzzSeeds returns packed encodings that cover every opcode and the
// conditional create layouts, the starting corpus for both fuzz targets.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for _, e := range bufferTestEvents() {
		enc := appendEvent(nil, e)
		seeds = append(seeds, enc, enc[:len(enc)/2])
	}
	var all []byte
	for _, e := range bufferTestEvents() {
		all = appendEvent(all, e)
	}
	seeds = append(seeds, all, []byte{}, []byte{0}, []byte{99, 1, 2}, []byte{byte(KindCreate), 0xFF})
	return seeds
}

// FuzzDecodeEvent checks that the packed decoder never panics and never
// over-consumes: corrupt and truncated buffers must return an error, and
// any successfully decoded event must survive an encode/decode round
// trip (byte-identical re-encoding is not required — uvarints are
// accepted in non-minimal form — but the event must be).
func FuzzDecodeEvent(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, n, err := decodeEvent(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decodeEvent consumed %d of %d bytes", n, len(data))
		}
		enc := appendEvent(nil, e)
		e2, n2, err := decodeEvent(enc)
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", e, err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		if !reflect.DeepEqual(e2, e) {
			t.Fatalf("round trip diverged: %+v -> %+v", e, e2)
		}
	})
}

// FuzzChunkCodec checks the chunked codec from both directions. Reading:
// the chunk reader must never panic on arbitrary bytes — whether raw, or
// prefixed with the chunked magic so header parsing and CRC verification
// are reached — it must error or reach the end segment. The trusted-bytes
// boundary: the bytes framed as one CRC-valid chunk reach Next's
// structural walk, which must either refuse them or leave a chunk whose
// unchecked replay delivers exactly the events decodeEvent finds, with
// the header declaring that count and that count plus one. Writing: any
// event stream the packed decoder accepts must survive a chunked round
// trip with tiny chunks (forcing many chunk boundaries),
// bit-identically.
func FuzzChunkCodec(f *testing.F) {
	for _, s := range fuzzSeeds() {
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

		// The events decodeEvent finds, up to the first error.
		var want collectSink
		whole := true
		for pos := 0; pos < len(data); {
			e, n, err := decodeEvent(data[pos:])
			if err != nil {
				whole = false
				break
			}
			pos += n
			want.events = append(want.events, e)
		}

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
