#!/usr/bin/env bash
# Builds the benchmark and the mce binary from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload or-stream --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it builds, caches and
# writes stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$root/.bench_build/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/mce" github.com/graphmining/hbbmc/cmd/mce) >&2
exec "$out/perfbench" -dir "$out" -mce "$out/mce" "$@"
