#!/bin/sh
# Builds schedd and perfbench from the source tree in the current
# directory (the repository root) and runs perfbench with the given flags:
#
#	sh perfbench/run.sh --workload cold_submit --seed 1 --seconds 25 --trace 0
#
# Every build artefact, Go cache and run directory lives under .bench_build,
# so the run reads and writes nothing outside the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/schedd" ./cmd/schedd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -schedd "$out/schedd" -out "$out" "$@"
