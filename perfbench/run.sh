#!/usr/bin/env bash
# Builds carcs-server and the benchmark from the checkout this script sits
# in, then runs the benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: Go's build cache, the two binaries, the servers' data
# directories and the traced run's span files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -o "$out/bin/carcs-server" ./cmd/carcs-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/carcs-server" -work "$out/run" "$@"
