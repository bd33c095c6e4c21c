#!/usr/bin/env bash
# Builds the AcceSys benchmark from source and runs it. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload fig4-cold --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, temporary files, the sweep caches and
# trace files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
