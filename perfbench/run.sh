#!/usr/bin/env bash
# Builds the benchmark and spmt-server from this checkout's sources and
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: binaries, the Go build cache, server stores and logs,
# and span files of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/spmt-server" ]]; then
	echo "perfbench: $root holds no spmt sources to build" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local
# The go command keeps its settings and telemetry under the user config
# directory; point it into the checkout too.
export XDG_CONFIG_HOME="$out/config"

go build -o "$out/bin/spmt-server" ./cmd/spmt-server
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" --server-bin "$out/bin/spmt-server" --work-dir "$out/work" --src "$root" "$@"
