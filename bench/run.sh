#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds assocd and the benchmark
# from source into .bench_build/ at the repository root (nothing is
# written outside the checkout), then runs one workload. Arguments are
# passed through: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
cd "$root"
go build -o "$build/assocd" ./cmd/assocd
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" -assocd "$build/assocd" "$@"
