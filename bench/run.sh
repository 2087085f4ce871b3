#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live in $CARGO_TARGET_DIR, or in
# .bench_build when that is unset, so nothing is written outside the
# checkout. The first run compiles the standard library into that cache.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
# Go's default install location, for shells whose PATH lacks it.
command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"

mkdir -p "$out/tmp" "$out/config"
# The build's cache, temporary files and the go command's own config and
# telemetry all stay under $out.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd bench && go build -o "$out/ftpnbench" .) >&2
exec "$out/ftpnbench" "$@"
