package workload

import (
	"fmt"
	"os"

	"odbgc/internal/trace"
)

// Streamed traces keep the suite's one-trace-many-policies discipline
// viable past the point where a whole trace fits in memory: generation
// writes chunks to disk as they fill (pipelined through an AsyncWriter,
// so encoding the next chunk overlaps writing the previous one), and
// replay streams them back through the chunk prefetch pipeline. Peak
// memory is two chunks regardless of trace length.

// RecordStreamed generates cfg's full event stream directly into a
// chunked trace file at path, never holding more than one chunk of
// events in memory. chunkBytes <= 0 selects trace.DefaultChunkBytes.
// The returned trace replays from the file (Buffer is nil);
// it is bit-identical to the trace Record returns for the same cfg,
// including the build/churn boundary.
func RecordStreamed(cfg Config, path string, chunkBytes int) (*RecordedTrace, error) {
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	aw := trace.NewAsyncWriter(f)
	cw := trace.NewChunkWriter(aw, cfg.Fingerprint(), chunkBytes)
	rt := &RecordedTrace{Config: cfg, BuildEvents: -1}
	g.SetBuildCompleteHook(func() { rt.BuildEvents = cw.Count() })
	st, runErr := g.Run(cw)
	if runErr == nil {
		runErr = cw.Flush()
	}
	if err := aw.Close(); runErr == nil {
		runErr = err
	}
	if err := f.Close(); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		os.Remove(path)
		return nil, runErr
	}
	rt.Stats = st
	s, err := trace.OpenChunkStream(path)
	if err != nil {
		return nil, fmt.Errorf("workload: reopening freshly recorded trace: %w", err)
	}
	rt.Stream = s
	return rt, nil
}

// OpenStreamed wraps an existing chunked trace file as a RecordedTrace.
// The file carries no workload configuration or build-phase boundary, so
// Config is zero, Stats holds only the event count, and BuildEvents is
// -1 (warm-start replays of an opened file never fire buildDone).
func OpenStreamed(path string) (*RecordedTrace, error) {
	s, err := trace.OpenChunkStream(path)
	if err != nil {
		return nil, err
	}
	return &RecordedTrace{
		Stats:       Stats{Events: s.Len()},
		Stream:      s,
		BuildEvents: -1,
	}, nil
}

// WriteChunked writes the recorded trace to a chunked file at path,
// stamped with the generating configuration's fingerprint. chunkBytes <=
// 0 selects trace.DefaultChunkBytes. The file replays bit-identically to
// the in-memory trace.
func (rt *RecordedTrace) WriteChunked(path string, chunkBytes int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := trace.NewChunkWriter(f, rt.Config.Fingerprint(), chunkBytes)
	err = rt.Replay(cw, nil)
	if err == nil {
		err = cw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}
