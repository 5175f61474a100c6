#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under <checkout>/.bench_build:
# the Go build cache and temporary files, the two binaries (plain and
# -cover), CPU profiles, coverage counters and the span files of traced runs.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$src")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
# The go command keeps telemetry counters under the user's configuration
# directory; that is outside the checkout, so it gets one inside.
export XDG_CONFIG_HOME="$build/config"

# stdout carries only the program's report; build chatter goes to stderr.
(cd "$src" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
