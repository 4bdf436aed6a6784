#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"). Run from
# the repository root:
#
#   bash cmd/aiio-bench/run.sh --workload cold_distinct --seed 1 --seconds 10 --trace 0
#
# It is `go run ./cmd/aiio-bench "$@"` with every file the Go toolchain and
# the benchmark write — build cache, temp files, binaries, model stores, job
# logs, spans — kept inside the checkout under .bench_build/, so a run reads
# and writes nowhere else. The first run in a fresh checkout compiles the
# standard library into that cache; later runs reuse it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false

# With a fresh config dir the go command would start its telemetry sidecar, a
# detached process that outlives this script (and is all that remains when the
# build fails at once). Mode "off" starts none and writes no counters.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/" ./cmd/aiio-bench ./cmd/aiio-server
exec "$out/bin/aiio-bench" -server-bin "$out/bin/aiio-server" -workdir "$out/aiio-bench" "$@"
