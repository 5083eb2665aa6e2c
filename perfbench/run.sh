#!/usr/bin/env bash
# Builds the served-path benchmark from the checkout it sits in and runs
# it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload wire_detect --seed 1 --seconds 10 --trace 0
#
# The build (Go build cache, module cache, binary) and everything the
# benchmark writes stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spans "$out/spans" "$@"
