package main

import (
	"fmt"
	"io"
	"runtime"

	"odbgc/internal/record"
	"odbgc/internal/shard"
	"odbgc/internal/sim"
	"odbgc/internal/stats"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// replaySharded replays a chunked trace file through the
// partition-sharded engine in parallel mode: the stream is
// demultiplexed onto shards, each running a private simulator and
// draining every epoch on its own goroutine, with cross-shard references
// exchanged between epochs. The file streams through the prefetch
// pipeline.
func replaySharded(stdout io.Writer, path string, cfg sim.Config, shards int, assign shard.Assignment, epochEvents int64, recPath string) error {
	rt, err := workload.OpenStreamed(path)
	if err != nil {
		return err
	}
	shCfg := shard.Config{
		Shards:      shards,
		Assignment:  assign,
		EpochEvents: epochEvents,
		Parallel:    true,
		Sim:         cfg,
	}
	var rec *record.Recorder
	if recPath != "" {
		// One record stream per shard, tagged with the shard ID; the
		// engine stamps every row with its epoch, so the merged file is
		// deterministic across serial and parallel runs.
		rec = record.NewRecorder()
		shCfg.Record = func(i int) sim.RunRecorder {
			m := record.MetaFromLabel("gcsim/"+cfg.Policy, cfg.Policy)
			m.Shard = int64(i)
			return rec.NewRun(m)
		}
	}
	eng, err := shard.New(shCfg)
	if err != nil {
		return err
	}

	res, err := eng.Run(func(s trace.Sink) error { return rt.Replay(s, nil) })
	if err != nil {
		return err
	}
	printShardedResult(stdout, res)
	if rec != nil {
		if err := writeRecording(stdout, rec, recPath); err != nil {
			return err
		}
	}
	return nil
}

// printShardedResult renders the aggregate and per-shard tables of a
// sharded run.
func printShardedResult(stdout io.Writer, res shard.Result) {
	t := stats.NewTable(fmt.Sprintf("Sharded run: %s, %d shards (%s)", res.PerShard[0].Result.Policy, res.Shards, res.Assignment),
		"Metric", "Value")
	t.AddRow("Application events", fmt.Sprint(res.Events))
	t.AddRow("Epochs", fmt.Sprintf("%d x %d events", res.Epochs, res.EpochEvents))
	t.AddRow("Trees routed", fmt.Sprint(res.Trees))
	t.AddRow("Application I/Os", fmt.Sprint(res.AppIOs))
	t.AddRow("Collector I/Os", fmt.Sprint(res.GCIOs))
	t.AddRow("Total I/Os", fmt.Sprint(res.TotalIOs))
	t.AddRow("Collections", fmt.Sprint(res.Collections))
	t.AddRow("Reclaimed (KB)", fmt.Sprint(res.ReclaimedBytes/1024))
	t.AddRow("Foreign writes", fmt.Sprint(res.ForeignWrites))
	t.AddRow("Remset deltas exchanged", fmt.Sprint(res.DeltasExchanged))
	t.AddRow("Exchange messages", fmt.Sprint(res.MessagesSent))
	t.AddRow("Event imbalance", fmt.Sprintf("%.3f", res.Imbalance))
	// A drain's busy time measures its work only when it had a CPU to
	// itself: with fewer CPUs than shards, the parallel drains' timed
	// spans also count the time they waited for one.
	if res.BusyNsMax > 0 && runtime.GOMAXPROCS(0) >= res.Shards && runtime.NumCPU() >= res.Shards {
		t.AddRow("Shard-local scaling", fmt.Sprintf("%.2fx (busy %.2fs total / %.2fs critical path)",
			float64(res.BusyNsTotal)/float64(res.BusyNsMax),
			float64(res.BusyNsTotal)/1e9, float64(res.BusyNsMax)/1e9))
	}
	fmt.Fprintln(stdout, t)

	pt := stats.NewTable("Per-shard results",
		"Shard", "Events", "Total I/Os", "Collections", "Reclaimed KB", "Foreign out", "Ext refs")
	for _, sr := range res.PerShard {
		pt.AddRow(fmt.Sprint(sr.Shard),
			fmt.Sprint(sr.Events),
			fmt.Sprint(sr.Result.TotalIOs),
			fmt.Sprint(sr.Result.Collections),
			fmt.Sprint(sr.Result.ReclaimedBytes/1024),
			fmt.Sprint(sr.ForeignWrites),
			fmt.Sprint(sr.ExternalRefs))
	}
	fmt.Fprintln(stdout, pt)
}
