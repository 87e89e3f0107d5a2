#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash misbench/run.sh --workload gnp1m-2state --seed 1 --seconds 35 --trace 0
#
# Every file the Go toolchain and the benchmark write (build cache, binary,
# the edge-list input, span traces) goes under .bench_build in the current
# directory, so a run touches nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd misbench && go build -o "$out/misbench" .) >&2
exec "$out/misbench" "$@"
