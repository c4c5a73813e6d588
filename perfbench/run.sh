#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload search_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory; nothing is fetched over the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .

# Only a checkout that is itself a git work tree names its commit; git
# would otherwise report the HEAD of whatever repository encloses it.
commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
