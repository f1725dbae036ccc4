#!/usr/bin/env bash
# Builds the memdos benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash memdosbench/run.sh --workload fleet-attack --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span dumps stay under
# .bench_build/ in the working directory; nothing is fetched from the
# network (the benchmark and memdos use only the standard library).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off CGO_ENABLED=0

# The benchmark module imports memdos through a relative replace
# directive, so it builds only inside a full source tree.
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/memdosbench/go.mod" ]; then
	echo "memdosbench: run from the root of a memdos source tree" >&2
	exit 2
fi
(cd "$root/memdosbench" && go build -o "$out/memdosbench" .)
exec "$out/memdosbench" "$@"
