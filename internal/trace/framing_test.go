package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/segfile"
)

// chunkHeaderSize is the segment header preceding every chunk payload,
// for tests that locate payloads or build chunks by hand.
const chunkHeaderSize = segfile.HeaderSize

// TestChunkFingerprintMismatch splices a chunk stamped with another
// fingerprint after chunk 0: reading, skipping, and opening the file as
// a stream must each refuse it, naming chunk 1.
func TestChunkFingerprintMismatch(t *testing.T) {
	payload := encodeEvents(t, bufferTestEvents()...)
	var buf bytes.Buffer
	sw := segfile.NewWriter(&buf, &chunkFormat)
	for _, fp := range []uint64{0xaaaa, 0xbbbb} {
		if err := sw.Write(uint32(len(bufferTestEvents())), fp, payload); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	const want = "trace: chunk 1: fingerprint 0x000000000000bbbb differs from chunk 0's 0x000000000000aaaa (mixed trace files?)"

	cr := NewChunkReader(bytes.NewReader(data))
	var c Chunk
	if err := cr.Next(&c); err != nil {
		t.Fatal(err)
	}
	if err := cr.Next(&c); err == nil || err.Error() != want {
		t.Errorf("Next: err = %v, want %q", err, want)
	}
	cr = NewChunkReader(bytes.NewReader(data))
	if err := cr.SkipChunk(); err != nil {
		t.Fatal(err)
	}
	if err := cr.SkipChunk(); err == nil || err.Error() != want {
		t.Errorf("SkipChunk: err = %v, want %q", err, want)
	}
	path := filepath.Join(t.TempDir(), "mixed.odbgcck")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenChunkStream(path); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("OpenChunkStream: err = %v, want %q", err, want)
	}
}

// TestChunkStreamTruncatedPayload cuts the file inside its last payload:
// the header scan, which seeks over payloads, must still name the chunk.
func TestChunkStreamTruncatedPayload(t *testing.T) {
	data := writeChunked(t, benchBuffer(t, 600), 1, 512)
	_, cr := readAllChunks(t, data)
	path := filepath.Join(t.TempDir(), "cut.odbgcck")
	if err := os.WriteFile(path, data[:len(data)-chunkHeaderSize-3], 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("trace: chunk %d: truncated payload", cr.Chunks()-1)
	if _, err := OpenChunkStream(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenChunkStream of a cut file: err = %v, want %q", err, want)
	}
}

// TestOpenChunkStreamReadError opens a directory: the read of the magic
// fails with an I/O error, which must surface as itself rather than as
// a bad magic.
func TestOpenChunkStreamReadError(t *testing.T) {
	dir := t.TempDir()
	_, err := OpenChunkStream(dir)
	if err == nil {
		t.Fatal("OpenChunkStream of a directory succeeded")
	}
	if errors.Is(err, ErrBadChunkMagic) {
		t.Fatalf("I/O error reported as a bad magic: %v", err)
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error %q does not name the path", err)
	}
}

// chunkOffsets walks a chunk file's headers and returns the offset of
// each chunk and, last, of the end segment.
func chunkOffsets(data []byte) []int {
	var offs []int
	pos := len(chunkMagic)
	for pos < len(data)-chunkHeaderSize {
		offs = append(offs, pos)
		pos += chunkHeaderSize + int(binary.LittleEndian.Uint32(data[pos+4:]))
	}
	return append(offs, pos)
}

// TestChunkCutAtBoundaryRejected cuts a chunk file at each chunk
// boundary, where every remaining chunk still passes its CRC check:
// reading it chunk by chunk and opening it as a stream must each fail
// naming the missing end segment instead of replaying a shorter trace.
func TestChunkCutAtBoundaryRejected(t *testing.T) {
	data := writeChunked(t, benchBuffer(t, 600), 1, 512)
	offs := chunkOffsets(data)
	if len(offs) < 3 || offs[len(offs)-1] != len(data)-chunkHeaderSize {
		t.Fatalf("chunk offsets %v in %d bytes: want several chunks and the end segment last", offs, len(data))
	}
	dir := t.TempDir()
	for i, off := range offs {
		cut := data[:off]
		want := fmt.Sprintf("trace: chunk %d: missing end segment", i)
		cr := NewChunkReader(bytes.NewReader(cut))
		var c Chunk
		var err error
		for err == nil {
			err = cr.Next(&c)
		}
		if err.Error() != want {
			t.Errorf("cut after %d chunks: Next err = %v, want %q", i, err, want)
		}
		path := filepath.Join(dir, fmt.Sprintf("cut%d.odbgcck", i))
		if err := os.WriteFile(path, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenChunkStream(path); err == nil || err.Error() != path+": "+want {
			t.Errorf("cut after %d chunks: OpenChunkStream err = %v, want %q", i, err, want)
		}
	}
}
