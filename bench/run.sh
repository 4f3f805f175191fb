#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark:
#
#   bash bench/run.sh --workload t2-stoch --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the benchmark's scratch directories all
# live under .bench_build/ in the repository root, so a run writes nothing
# outside the checkout. The build is offline (GOPROXY=off) and uses the
# installed toolchain (GOTOOLCHAIN=local); it fails fast, printing no
# result, when the repository's own sources are missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/bench" build -o "$out/battbench" .
exec "$out/battbench" "$@"
