#!/usr/bin/env bash
# Builds the benchmark and the xfdetector binary from the repository it is
# run in, then runs one benchmark invocation. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload insert_bug --seed 1 --seconds 30 --trace 0
#
# --workload all runs update_loop, insert_bug and fleet_insert in turn with
# the same flags, printing each one's summary and JSON line.
#
# Everything it builds or writes stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

go build -o "$out/xfdetector" ./cmd/xfdetector
(cd perfbench && go build -o "$out/perfbench" .)
bench=("$out/perfbench" -xfdetector "$out/xfdetector" -workdir "$out/work")

if [[ " $* " == *" --workload all "* || " $* " == *" -workload all "* ]]; then
	for w in update_loop insert_bug fleet_insert; do
		"${bench[@]}" "${@/#all/$w}"
	done
	exit 0
fi
exec "${bench[@]}" "$@"
