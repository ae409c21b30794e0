#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it with the given
# arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Every build and cache file stays in .bench_build under the checkout.
set -euo pipefail
out=$(pwd)/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOTOOLCHAIN=local \
	GOFLAGS=-mod=readonly GOPROXY=off GOENV=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
