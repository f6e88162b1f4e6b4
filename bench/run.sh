#!/usr/bin/env bash
# Entry point BENCHMARK.json names: build crowperf from this checkout into
# .bench_build/ (Go build cache included, so nothing is written outside the
# checkout) and run it with the driver's arguments. Run from the checkout root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/crowsim" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "crowperf: run from the root of a crowdram checkout: go.mod, cmd/ and bench/ must be here" >&2
	exit 2
fi

export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build/bin"
go build -C "$root/bench" -o "$root/.bench_build/bin/crowperf" ./crowperf
exec "$root/.bench_build/bin/crowperf" "$@"
