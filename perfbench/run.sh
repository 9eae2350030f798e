#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload separable-select --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/perfbench in the checkout. The last line of standard output is
# the run's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root"
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" -out "$out" "$@"
