#!/usr/bin/env bash
# Builds the pipeline benchmark and toplistsd from source, then runs one
# workload. Run it from the repository root:
#
#   bash pipebench/run.sh --workload study-exact --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, the binaries, traces, result files and the
# servers' checkpoint directories.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/toplistsd || ! -f pipebench/go.mod ]]; then
	echo "pipebench: run from the repository root (needs go.mod, cmd/toplistsd and pipebench/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd pipebench && go build -o "$build/bin/" . toplists/cmd/toplistsd) >&2
exec "$build/bin/pipebench" -bin "$build/bin" -out "$build/out" "$@"
