#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload testbed --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go caches stay under .bench_build/ in the
# checkout. Outside a full checkout (no module at the root) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home"
(
	cd perfbench
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
		GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off \
		go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
