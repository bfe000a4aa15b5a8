#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through. Build state (the compiler cache,
# temporary files and the Go tool's user configuration) stays in
# .bench_build/ at the root, so a run reads and writes only inside the
# checkout besides the Go toolchain itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"
