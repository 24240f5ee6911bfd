#!/usr/bin/env bash
# Builds the benchmark and the cmd/serve binary from the checkout's sources,
# then runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload lv-sweep --seed 20240506 --seconds 50 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files and the binaries.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
go build -o "$out/bin/serve" ./cmd/serve >&2

exec "$out/bin/perfbench" -serve-bin "$out/bin/serve" -work "$out/work" "$@"
