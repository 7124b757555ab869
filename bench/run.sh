#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run in and
# runs it with the arguments given. Everything the build writes (Go build
# cache, temporary files, the binary) and everything the benchmark writes
# by default stays under .bench_build/ in that checkout.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod here; run from the module root" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="$build/tmp"
# The driver's checkout is not a git repository, so there is nothing to stamp.
go build -buildvcs=false -o "$build/dsmsim-bench" ./bench
exec "$build/dsmsim-bench" "$@"
