#!/usr/bin/env bash
# Builds the mview benchmark from the sources of the checkout it sits in
# and runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, durable
# data directories, span dumps, result stamps) stays under
# .bench_build/perfbench in the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
if ! grep -qs '^module mview$' "$root/go.mod"; then
	echo "perfbench: $root/go.mod does not declare module mview; run from an mview checkout" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .)

sha=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
cd "$root"
exec "$out/perfbench" -out "$out" -git-sha "$sha" "$@"
