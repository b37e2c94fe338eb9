#!/usr/bin/env bash
# Builds gsacs-server and the benchmark from this checkout, then runs one
# workload. Run it from the repository root:
#
#   bash gsacsbench/run.sh --workload sec71_read --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and per-run data directories all live
# under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/config/go/telemetry"
# With telemetry in its default "local" mode the go command forks a detached
# upload process that outlives the build. The mode file turns it off, so the
# go command starts no process that this script does not wait for.
printf 'off' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOSUMDB=off \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off XDG_CONFIG_HOME="$out/config"
(cd "$root" && go build -o "$out/bin/gsacs-server" ./cmd/gsacs-server) >&2
(cd "$here" && go build -o "$out/bin/gsacsbench" .) >&2
exec "$out/bin/gsacsbench" -server "$out/bin/gsacs-server" -work "$out/work" "$@"
