#!/usr/bin/env bash
# BENCHMARK.json's command. cmd/perf is a module of its own (go.mod beside
# this file, bound to the repository's module by a replace directive), so
# it is built from its own directory; the binary goes to .bench_build/ at
# the root of the checkout and runs from that root, where its default
# scratch directory lies.
set -eu
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
mkdir -p "$root/.bench_build"
go build -C "$here" -o "$root/.bench_build/perf" .
cd "$root"
exec "$root/.bench_build/perf" "$@"
