#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload offline-corpus --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files stay in
# .bench_build at the checkout root. The build needs the repository
# around this directory; without it the script fails before any run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -trimpath -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -workdir "$out/work" "$@"
