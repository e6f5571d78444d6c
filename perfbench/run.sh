#!/usr/bin/env bash
# Builds edgeschedd and the perfbench driver from the checkout in the
# current directory, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

# With telemetry on (the default "local" mode), the go command forks a
# detached telemetry process that can outlive this script. Turn it off
# in the private config directory before the first go command.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"

# A checkout without the scheduler cannot be benchmarked; say so and
# fail before starting anything.
if [ ! -f go.mod ] || [ ! -d cmd/edgeschedd ]; then
	echo "perfbench: run from the root of a repository checkout (no go.mod or cmd/edgeschedd here)" >&2
	exit 1
fi

go build -o "$out/edgeschedd" ./cmd/edgeschedd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/edgeschedd" -work "$out/work" "$@"
