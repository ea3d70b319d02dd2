#!/usr/bin/env bash
# Front door of the benchmark: builds the harness from source into
# benchmark/out/ (git-ignored) and runs it with the given arguments.
# Every file the build and the run write stays under benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
if [ ! -f ../go.mod ]; then
  echo "benchmark: no go.mod above $PWD: the benchmark imports tpal/internal/... and builds tpal-serve from the checkout it sits in" >&2
  exit 1
fi
mkdir -p out/tmp
# The go command's caches, temporary files and telemetry counters all
# live under out/; nothing is fetched and nothing needs a C compiler.
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" GOMODCACHE="$PWD/out/gomod" \
  XDG_CONFIG_HOME="$PWD/out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -o out/benchmark .
exec out/benchmark "$@"
