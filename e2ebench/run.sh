#!/usr/bin/env bash
# Builds the e2ebench binary from this checkout's sources and runs it with
# the given arguments. Run from the repository root. Every build artifact
# (binary, Go build and config caches, temporary files) stays under
# .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off \
	XDG_CONFIG_HOME="$out/config"
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
