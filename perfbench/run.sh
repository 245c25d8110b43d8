#!/usr/bin/env bash
# Builds the benchmark and the program under test from the checkout's
# sources, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload apply-deep --seed 1 --seconds 20 --trace 0
#
# Everything it builds, caches and writes (binaries, the Go build cache,
# temporary files, trace files) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

trace=0
prev=
for arg in "$@"; do
	case "$prev" in --trace | -trace) trace=$arg ;; esac
	case "$arg" in --trace=* | -trace=*) trace=${arg#*=} ;; esac
	prev=$arg
done

cd "$root/perfbench"
go build -o "$out/perfbench" ./cmd/perfbench
go build -o "$out/pinatubod" pinatubo/cmd/pinatubod
# Only traced runs need the per-module probes, which import the program's
# internal packages; untraced runs never build them, so an internal
# rename cannot stop the end-to-end metrics from being measured.
if [ "$trace" != 0 ]; then
	go build -o "$out/perfprobe" ./cmd/perfprobe
fi
cd "$root"
exec "$out/perfbench" --bin-dir "$out" "$@"
