#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments (see main.go for the flags). Everything the build
# writes stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
