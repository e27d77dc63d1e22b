#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload suite-instr --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# temporary files, the binary, scratch state and trace files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=unknown
	if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null || true)" = "$root" ]; then
		PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	fi
	export PERFBENCH_COMMIT
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
# A relative --out keeps the daemon's unix socket path short wherever the
# checkout lives.
exec "$out/perfbench" --out .bench_build "$@"
