#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Everything the build and the run write
# (the Go build cache, the perfbench binary, spans and arrival traces) stays
# under .bench_build/ in the checkout. Build output goes to stderr, so the
# last line on stdout is always perfbench's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
