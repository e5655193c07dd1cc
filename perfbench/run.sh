#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload durable-ingest --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Every build and run artefact stays
# inside the checkout: the binary and the Go build cache go to
# .bench_build/, results and spans to .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

commit=unknown
if command -v git >/dev/null 2>&1 && git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi

(
	cd "$root/perfbench"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
		go build -buildvcs=false -o "$build/perfbench" .
)
exec "$build/perfbench" --commit "$commit" "$@"
