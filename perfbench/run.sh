#!/usr/bin/env bash
# Builds scfpipe and the perfbench program from this checkout, then runs one
# benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload golden|usage|chaos-full \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Build outputs, the Go build cache and the temp run dirs all live under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/scfpipe || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/scfpipe and perfbench/go.mod are needed)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$PWD/$out"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/config"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters in
# the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

# Build once per invocation, before anything is timed.
go build -o "$out/bin/scfpipe" ./cmd/scfpipe >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/tmp" "$@"
