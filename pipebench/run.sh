#!/usr/bin/env bash
# Builds the pipeline benchmark from the repository's source and runs it.
# Run from the repository root; arguments pass through to the benchmark:
#
#   bash pipebench/run.sh --workload pes_round --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp" XDG_CONFIG_HOME="${build}/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "${root}/pipebench" && go build -o "${build}/pipebench" .)
exec "${build}/pipebench" --root "${root}" "$@"
