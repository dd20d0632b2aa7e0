#!/usr/bin/env bash
# Builds the benchmark and the tlbserver it drives from this checkout's
# source, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, module cache, temporary files and
# binaries. Go's own config and telemetry directories point there too.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

log="$build/build.log"
if ! { go build -o "$build/bin/tlbserver" ./cmd/tlbserver &&
	(cd perfbench && go build -o "$build/bin/perfbench" .); } >"$log" 2>&1; then
	echo "perfbench: build failed:" >&2
	cat "$log" >&2
	exit 1
fi
exec "$build/bin/perfbench" "$@"
