#!/usr/bin/env bash
# Builds dcqcn-bench from source and runs it with the given arguments.
# Run it from the repository root, for example
#
#   bash cmd/dcqcn-bench/run.sh --workload clos-incast --seed 1 --seconds 25 --trace 0
#
# Everything the build writes — the Go build cache, the go command's
# own state and the binary — stays under .bench_build in the current
# directory. The build is offline: the module has no dependencies
# outside the repository.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/cache" "$out/tmp" "$out/home"
export GOCACHE=$out/cache GOTMPDIR=$out/tmp HOME=$out/home GOPATH=$out/home/go \
	XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/cmd/dcqcn-bench" build -o "$out/dcqcn-bench" .
exec "$out/dcqcn-bench" "$@"
