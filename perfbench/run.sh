#!/usr/bin/env bash
# Builds gems-server and the perfbench program from the GraQL checkout in
# the current directory, then runs it against the server.
#
#   bash perfbench/run.sh --workload bi-prepared --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, generated datasets and server logs
# all live under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/gems-server" ]; then
	echo "perfbench: run from the root of a GraQL checkout (no cmd/gems-server here)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/work" "$out/tmp" "$out/config"
# Everything the Go toolchain writes (build cache, work directories,
# telemetry and env files under the user config directory) stays in $out.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
unset GRAQL_IR_VERIFY

go build -o "$out/bin/gems-server" ./cmd/gems-server
(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/gems-server" -work "$out/work" "$@"
