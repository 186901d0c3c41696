#!/usr/bin/env bash
# Builds the e2ebench benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash e2ebench/run.sh --workload batch_exhaustive --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench-bin" .) >&2
exec "$out/e2ebench-bin" --root "$root" --out "$out/e2ebench" "$@"
