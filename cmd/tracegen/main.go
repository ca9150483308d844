// Command tracegen generates a synthetic application trace file that
// cmd/gcsim-style simulations can replay, so every policy can be evaluated
// against the identical event stream.
//
// Usage:
//
//	tracegen -o trace.odbgcck [-chunk-bytes N] [-seed N] [-live BYTES]
//	         [-alloc BYTES] [-dense F] [-cross F] [-trees N] [-max-events N]
//
// The file is a chunked trace: fixed-size CRC-guarded chunks streamed to
// disk as they fill, so the encoded trace never resides in memory (the
// generator keeps state for its alive nodes plus under 8 bytes per
// object created); gcsim replays it through a prefetching pipeline at a
// fixed two-chunk memory budget no matter how long the trace is. A
// failed run leaves no file behind.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"odbgc/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run is the whole command, separated from main so tests can drive it
// in-process with arbitrary arguments and capture its output.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out        = fs.String("o", "", "output trace file (required)")
		chunkBytes = fs.Int("chunk-bytes", 0, "chunk payload target in bytes (0 = 4 MiB default)")
		seed       = fs.Int64("seed", 1, "workload seed")
		live       = fs.Int64("live", 0, "live-data setpoint in bytes (0 = default)")
		alloc      = fs.Int64("alloc", 0, "total allocation target in bytes (0 = default)")
		dense      = fs.Float64("dense", -1, "dense edge fraction; negative = default")
		cross      = fs.Float64("cross", 0, "fraction of dense edges that target another tree (cross-shard traffic for sharded replay)")
		trees      = fs.Int("trees", 0, "mean nodes per tree (0 = default)")
		maxEvents  = fs.Int64("max-events", 0, "safety cap on emitted events (0 = default 80M); raise for 100M+ event traces, up to about 4.29e9 (every event may be a create, and OIDs are 32-bit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *out == "":
		return fmt.Errorf("-o is required")
	case *chunkBytes < 0:
		return fmt.Errorf("-chunk-bytes %d: byte count cannot be negative", *chunkBytes)
	case *live < 0:
		return fmt.Errorf("-live %d: byte count cannot be negative", *live)
	case *alloc < 0:
		return fmt.Errorf("-alloc %d: byte count cannot be negative", *alloc)
	case *cross < 0 || *cross > 1:
		return fmt.Errorf("-cross %g: fraction must be in [0,1]", *cross)
	case *trees < 0:
		return fmt.Errorf("-trees %d: node count cannot be negative", *trees)
	case *maxEvents < 0:
		return fmt.Errorf("-max-events %d: event cap cannot be negative", *maxEvents)
	}

	cfg := workload.DefaultConfig()
	cfg.Seed = *seed
	if *live > 0 {
		cfg.TargetLiveBytes = *live
	}
	if *alloc > 0 {
		cfg.TotalAllocBytes = *alloc
	}
	if *dense >= 0 {
		cfg.DenseEdgeFraction = *dense
	}
	cfg.CrossTreeFraction = *cross
	if *trees > 0 {
		cfg.MeanTreeNodes = *trees
	}
	if *maxEvents > 0 {
		cfg.MaxEvents = *maxEvents
	}

	// A failed generation removes the partial file, which no reader
	// would accept: it lacks the end segment that Flush writes last.
	rt, err := workload.RecordStreamed(cfg, *out, *chunkBytes)
	if err != nil {
		return err
	}
	st := rt.Stats
	fmt.Fprintf(stdout, "%s: %d events (%d creates, %d reads, %d writes, %d modifies), %d deletions, %.1f MB allocated, r/w ratio %.1f\n",
		*out, st.Events, st.Creates, st.Reads, st.Writes, st.Modifies,
		st.Deletions, float64(st.AllocatedBytes)/(1<<20), st.EdgeReadWriteRatio)
	if *cross > 0 {
		fmt.Fprintf(stdout, "%s: %d of %d dense edges cross trees\n", *out, st.CrossTreeEdges, st.DenseEdges)
	}
	return nil
}
