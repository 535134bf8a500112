#!/bin/sh
# bench_sweep.sh — run the tracked benchmarks with the protocol
# BENCH_BASELINE.json was recorded with: -benchtime 1x with -benchmem, the
# whole sweep repeated N times (default 3) so that scripts/benchguard can
# keep each benchmark's minimum ns/op and allocs/op. Output goes to stdout.
#
# Usage: scripts/bench_sweep.sh [N] | go run ./scripts/benchguard ...
#        scripts/bench_sweep.sh 3 | go run ./scripts/benchguard -out BENCH_BASELINE.json
set -eu

repeats=${1:-3}
pattern='GreedyPhysical|FDDRun|PDDRun|Fig6GridImprovement|FlowEpoch|RunGoldenSpec|SlotState|ForestRepair|MaxWeight|FanZhang|Spatial'

i=0
while [ "$i" -lt "$repeats" ]; do
    go test -run '^$' -bench "$pattern" -benchtime 1x -benchmem ./...
    i=$((i + 1))
done
