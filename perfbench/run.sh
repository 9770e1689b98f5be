#!/usr/bin/env bash
# Builds the study CLIs and the benchmark harness from the checkout's
# sources, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload chip-paper --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes,
# including the Go build cache, stays under .bench_build/.
set -euo pipefail

root=$(pwd)
for src in go.mod cmd/chipsim cmd/syssim cmd/obscheck; do
	if [ ! -e "$src" ]; then
		echo "perfbench: $root/$src not found; run from the repository root" >&2
		exit 2
	fi
done

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config/go/telemetry" "$out/bin"
# The go command forks a detached telemetry process unless the mode file
# under its config directory says off; that process would outlive this run.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config" PPROF_TMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

go build -o "$out/bin/" ./cmd/chipsim ./cmd/syssim ./cmd/obscheck >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
