#!/usr/bin/env bash
# Builds the benchmark and the gminerd/gminer-worker binaries from this
# checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload batch-heavy --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"

(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" . >&2
	go build -o "$out/bin/gminerd" gminer/cmd/gminerd >&2
	go build -o "$out/bin/gminer-worker" gminer/cmd/gminer-worker >&2
)

exec "$out/bin/perfbench" --bin-dir "$out/bin" --work-dir "$out/perfbench" "$@"
