#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-dashboard --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache) and span logs go under
# .bench_build/perfbench in the working directory, so nothing is written
# outside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
