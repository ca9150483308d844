#!/bin/sh
# ci.sh — the repository's check suite. Run before committing.
#
# Keep this in sync with ROADMAP.md's tier-1 definition: build + full test
# suite, plus vet and a race pass over the packages that exercise the most
# shared state.
set -eux

gofmt_dirty=$(gofmt -l ./*.go cmd examples internal perfbench)
if [ -n "$gofmt_dirty" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$gofmt_dirty" >&2
    exit 1
fi
go vet ./...
# Project-specific analyzers: kindswitch (exhaustive enum switches),
# arenaindex (no pointer into an //odbgc:arena field held across a move
# of it), hotcall (zero-alloc hot paths) and detflow (determinism) — see
# DESIGN.md "Static analysis layer" and internal/analysis. Any finding
# fails the build, and so does any //odbgc:*-ok suppression that no
# longer suppresses anything.
go build -o bin/odbgc-vet ./cmd/odbgc-vet
go vet -vettool="$PWD/bin/odbgc-vet" ./...
go build ./...
go test ./...
# Every benchmark once, for one iteration: a benchmark that panics or
# calls b.Fatal fails here. Its timings are not checked.
go test -run '^$' -bench . -benchtime 1x ./...
# The benchmark's own tests: all three workloads, at tiny scale, traced
# and untraced, through perfbench's correctness gate. No timing is gated.
(cd perfbench && go test ./...)
# The shard package's tests include the failure-containment ones: a
# panicking shard policy and a corrupted foreign out-count must surface
# as errors naming the shard, in both engine modes. The short self-check
# then runs all seven policies through the parallel engine under the
# race detector.
go test -race ./internal/sim ./internal/gc ./internal/shard
go test -race -run '^TestSelfCheckShort$' ./internal/check
# Scheduler / trace-cache smoke under the race detector: the suite-wide
# orchestration (worker pool + shared cache) and the cache's concurrent
# generation paths.
go test -race -run 'Suite|Scheduler|TraceCache|RunRecorded|RecordRegenerates' ./internal/experiments ./internal/workload
# Codec fuzz smoke: the payload walk and the chunked codec must error,
# never panic, on truncated or corrupted input, and the two writers must
# accept the same arbitrary events and replay them alike, from memory
# and from a file.
go test -run '^$' -fuzz '^FuzzDecodeEvent$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzChunkCodec$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzEventCodec$' -fuzztime 5s ./internal/trace
# Audited-simulator fuzz smoke: random valid event streams through a
# simulator running the full invariant catalog after every collection.
go test -run '^$' -fuzz '^FuzzAuditedSim$' -fuzztime 5s ./internal/check
# Heap slot fuzz smoke: random Alloc/WriteField/Move/Discard/Reset
# sequences against a map model; the heap's invariants (OID index
# round-trip, free list, field arena) must hold after every operation.
go test -run '^$' -fuzz '^FuzzHeapSlots$' -fuzztime 5s ./internal/heap
# Shard-router fuzz smoke: random create/lookup streams through both
# assignment policies must keep per-shard OID spaces dense and totals
# consistent, erroring (never panicking) on malformed streams.
go test -run '^$' -fuzz '^FuzzShardRouter$' -fuzztime 5s ./internal/shard
# Differential self-check: every policy audited and re-run through the
# reference paths (streamed/in-memory, recorded/live, serial/parallel,
# sharded serial/parallel); any divergence or invariant violation fails.
go run ./cmd/experiments -selfcheck -short -q
# Streaming smoke: generate a ~5M-event chunked trace and replay it into
# a full simulation under a memory ceiling — proof the streamed path
# holds its constant-memory claim end to end. Each ceilinged run is a
# built binary under scripts/rss_ceiling.py, which fails when the
# process's peak RSS passes the ceiling in MB. (GOMEMLIMIT cannot do
# this: it is a soft limit, and the Go runtime grows past it rather
# than fail.) Each ceiling is about twice the peak measured when it was
# set, so a change that keeps a whole trace in memory, or keeps
# generator state for every object ever created, fails here.
stream_tmp=$(mktemp -d)
trap 'rm -rf "$stream_tmp"' EXIT
# Examples: the only end-to-end callers of the public facade and of the
# OO1 defaults. Each one's stdout must match its examples/*/expected.txt
# byte for byte.
for ex in examples/*/; do
    go run "./$ex" > "$stream_tmp/example.txt"
    cmp "$stream_tmp/example.txt" "${ex}expected.txt"
done
# The paper's Tables 2-5 at full scale: stdout must match
# results/experiments_output.txt byte for byte up to its "Figure 4
# series" line, where the figure runs' output starts. Every I/O count in
# them comes through the page buffer.
sed '/^Figure 4 series/,$d' results/experiments_output.txt > "$stream_tmp/tables_want.txt"
go run ./cmd/experiments -tables -table5 -q -record none > "$stream_tmp/tables.txt"
cmp "$stream_tmp/tables.txt" "$stream_tmp/tables_want.txt"
# The trigger and partition-size sensitivity sweeps: stdout must match
# results/sensitivity_output.txt byte for byte.
go run ./cmd/experiments -sensitivity -q -record none > "$stream_tmp/sensitivity.txt"
cmp "$stream_tmp/sensitivity.txt" results/sensitivity_output.txt
# The extension ablations at 5 seeds: stdout must match
# results/ablations_output.txt byte for byte. The global-sweep row is
# the only end-to-end output of gc.Collector.GlobalSweep.
go run ./cmd/experiments -ablations -seeds 5 -q -record none > "$stream_tmp/ablations.txt"
cmp "$stream_tmp/ablations.txt" results/ablations_output.txt
go build -o bin/ ./cmd/tracegen ./cmd/gcsim ./cmd/traceinfo
ceiling() { python3 scripts/rss_ceiling.py "$@"; }
# The generator's state follows the alive nodes, not the run length, and
# so does the replay's: the heap keeps 4 bytes per OID issued and the
# rest per resident object.
ceiling 96 bin/tracegen -o "$stream_tmp/long.odbgcck" -alloc 200000000
ceiling 140 bin/gcsim -trace "$stream_tmp/long.odbgcck"
rm "$stream_tmp/long.odbgcck"
bin/tracegen -o "$stream_tmp/stream.odbgcck" -alloc 50000000
ceiling 75 bin/gcsim -trace "$stream_tmp/stream.odbgcck" > "$stream_tmp/stream.txt"
# The same trace with its end segment stripped ends at a chunk boundary,
# where every remaining chunk passes its CRC check: gcsim must refuse it
# naming the missing end segment instead of replaying a complete,
# shorter trace.
head -c -24 "$stream_tmp/stream.odbgcck" > "$stream_tmp/cut.odbgcck"
if bin/gcsim -trace "$stream_tmp/cut.odbgcck" 2> "$stream_tmp/cut.err"; then exit 1; fi
grep 'missing end segment' "$stream_tmp/cut.err"
rm "$stream_tmp/cut.odbgcck"
# The same replay with the full invariant audit after every activation
# (the heap's per-partition field arenas among it) must print the same
# bytes: the audit observes and never changes a result.
bin/gcsim -trace "$stream_tmp/stream.odbgcck" -audit > "$stream_tmp/stream_audit.txt"
cmp "$stream_tmp/stream.txt" "$stream_tmp/stream_audit.txt"
# NoCollection never collects, so the same replay grows to 128
# partitions, and each allocation that misses its parent's partition
# scans them all for the one with the most room: its stdout must match
# results/stream_nocollection_output.txt byte for byte.
bin/gcsim -trace "$stream_tmp/stream.odbgcck" -policy NoCollection > "$stream_tmp/stream_nocollection.txt"
cmp "$stream_tmp/stream_nocollection.txt" results/stream_nocollection_output.txt
# The per-partition report of the same replay: each row's live and
# garbage split (the oracle's per-partition garbage) and remembered-set
# count must match results/stream_inspect_output.txt byte for byte.
bin/gcsim -trace "$stream_tmp/stream.odbgcck" -inspect > "$stream_tmp/stream_inspect.txt"
cmp "$stream_tmp/stream_inspect.txt" results/stream_inspect_output.txt
ceiling 32 bin/traceinfo -chunk 0 "$stream_tmp/stream.odbgcck"
# Sharded smoke: the same streamed replay demultiplexed onto 4 shards
# whose epoch drains run on their own goroutines — once under the race
# detector on a cross-tree trace (the drains run while the demuxer fills
# the next epoch, and the exchange reads every shard once they join),
# once under a memory ceiling to show the sharded path inherits the
# streaming pipeline's constant-memory bound.
bin/tracegen -o "$stream_tmp/cross.odbgcck" -alloc 10000000 -cross 0.2
go run -race ./cmd/gcsim -trace "$stream_tmp/cross.odbgcck" -shards 4 -epoch-events 4096
# With -audit every shard audits its heap after each of its collections,
# and the audit observes and never changes a result: the audited replay
# must print what the plain one prints. One CPU keeps the wall-clock
# scaling row out of both.
GOMAXPROCS=1 bin/gcsim -trace "$stream_tmp/cross.odbgcck" -shards 4 -epoch-events 4096 > "$stream_tmp/cross.txt"
GOMAXPROCS=1 bin/gcsim -trace "$stream_tmp/cross.odbgcck" -shards 4 -epoch-events 4096 -audit > "$stream_tmp/cross_audit.txt"
cmp "$stream_tmp/cross.txt" "$stream_tmp/cross_audit.txt"
# A denser cross-tree trace, at the default epoch length, has exchanges
# that deliver add deltas after their target was reclaimed (the shard
# runner's late counts). Its plain and audited 4-shard replays must both
# print results/sharded_late_output.txt byte for byte.
bin/tracegen -o "$stream_tmp/late.odbgcck" -alloc 30000000 -dense 0.167 -cross 0.5
GOMAXPROCS=1 bin/gcsim -trace "$stream_tmp/late.odbgcck" -shards 4 > "$stream_tmp/late.txt"
cmp "$stream_tmp/late.txt" results/sharded_late_output.txt
GOMAXPROCS=1 bin/gcsim -trace "$stream_tmp/late.odbgcck" -shards 4 -audit > "$stream_tmp/late_audit.txt"
cmp "$stream_tmp/late_audit.txt" results/sharded_late_output.txt
rm "$stream_tmp/late.odbgcck"
ceiling 240 bin/gcsim -trace "$stream_tmp/stream.odbgcck" -shards 4
# Recording + query smoke: a reduced experiments run writes a structured
# .odbgcrec recording; odbgc-query must answer an aggregate query over
# it and regenerate the figure CSVs byte-identically to the direct emit.
go run ./cmd/experiments -fig45 -fig6 -seeds 2 -outdir "$stream_tmp/results" -q
go run ./cmd/odbgc-query -info "$stream_tmp/results/experiments.odbgcrec"
go run ./cmd/odbgc-query -group policy -agg count,sum:garbage_bytes "$stream_tmp/results/experiments.odbgcrec"
go run ./cmd/odbgc-query -figures "$stream_tmp/regen" "$stream_tmp/results/experiments.odbgcrec"
for fig in figure4_unreclaimed_garbage figure5_database_size figure6_storage_required; do
    cmp "$stream_tmp/results/$fig.csv" "$stream_tmp/regen/$fig.csv"
done
# Figures 4 and 5 are single-seed runs, so the reduced run reproduces the
# published CSVs exactly: the checked-in figures themselves must not move.
for fig in figure4_unreclaimed_garbage figure5_database_size; do
    cmp "$stream_tmp/results/$fig.csv" "results/$fig.csv"
done
# Record codec fuzz smoke: corrupt or truncated recordings must error
# naming the bad segment, never panic.
go test -run '^$' -fuzz '^FuzzRecordFile$' -fuzztime 5s ./internal/record
# Sharded-recording race smoke: per-shard recorders written from the
# parallel engine's drain goroutines, finished in shard order after the
# run.
# Each shard's row of the recording must match
# results/sharded_cross_runs.csv byte for byte.
go run -race ./cmd/gcsim -trace "$stream_tmp/cross.odbgcck" -shards 4 -epoch-events 4096 -record "$stream_tmp/sharded.odbgcrec"
go run ./cmd/odbgc-query -table runs -csv "$stream_tmp/sharded.odbgcrec" > "$stream_tmp/sharded_runs.csv"
cat "$stream_tmp/sharded_runs.csv"
cmp "$stream_tmp/sharded_runs.csv" results/sharded_cross_runs.csv
