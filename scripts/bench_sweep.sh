#!/bin/sh
# bench_sweep.sh — run the tracked benchmarks with the protocol
# BENCH_BASELINE.json was recorded with: -benchmem, the whole sweep repeated
# N times (default 3) so that scripts/benchguard can keep each benchmark's
# minimum ns/op and allocs/op. Most benchmarks run once per sweep
# (-benchtime 1x); among them FigChannelsQuick, the quick channels figure on
# one worker, is the tracked flow figure: its saturated runs reuse the
# worker's flow.Runner, and its B/op shows what that reuse saves. The flow
# runs (FlowEpoch*, RunGoldenSpec) and NewMeshGrid256 run 20 times: their
# per-op counts sit near 100-300 allocations, where a single iteration's few
# runtime allocations move allocs/op past the 1% gate, and the 20-iteration
# average repeats. RNGStream's streams take well under a microsecond (light)
# to a few (heavy), so one iteration times a cold cache: each of its
# sub-benchmarks runs for about 20 ms (-benchtime 20ms).
# Output goes to stdout.
#
# Usage: scripts/bench_sweep.sh [N] | go run ./scripts/benchguard ...
#        scripts/bench_sweep.sh 3 | go run ./scripts/benchguard -out BENCH_BASELINE.json
set -eu

repeats=${1:-3}
once='GreedyPhysical|FDDRun|PDDRun|Fig6GridImprovement|FigChannelsQuick|SlotState|ForestRepair|MaxWeight|FanZhang|Spatial|WorldAdvance64'
twenty='FlowEpoch|RunGoldenSpec|NewMeshGrid256'
timed='RNGStream'

i=0
while [ "$i" -lt "$repeats" ]; do
    go test -run '^$' -bench "$once" -benchtime 1x -benchmem ./...
    go test -run '^$' -bench "$twenty" -benchtime 20x -benchmem .
    go test -run '^$' -bench "$timed" -benchtime 20ms -benchmem ./internal/rng
    i=$((i + 1))
done
