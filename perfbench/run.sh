#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload grid-32k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the checkout: the Go
# build cache, the binary, temporary stores and trace files all go to
# .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

# XDG_CONFIG_HOME and GOPATH keep the toolchain's own config and module
# directories (telemetry counters included) inside the checkout too.
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
if [ -d "$root/.git" ] && [ -z "${BENCH_COMMIT:-}" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)
	export BENCH_COMMIT
fi

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --build-dir "$build" "$@"
