#!/usr/bin/env bash
# Builds sealbench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload serve-engine --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, toolchain telemetry, the binary) stays
# under .bench_build in the checkout, and the Go toolchain never reaches
# the network. Without a --workload it runs every workload, each in its
# own process.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd bench && go build -o "$out/sealbench" ./cmd/sealbench)
exec "$out/sealbench" "$@"
