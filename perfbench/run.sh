#!/usr/bin/env bash
# Builds the system under test (mpipredict, mpipredictd, mpigateway) and
# the benchmark from this checkout, then runs the benchmark with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest-wire --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# file goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mpipredictd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ must be present)" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off

go build -o "$out/bin/" ./cmd/mpipredict ./cmd/mpipredictd ./cmd/mpigateway
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" --bin "$out/bin" --work "$out/perfbench" "$@"
