#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go's build cache included, so nothing is written outside the
# checkout) and runs it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local

# The commit is recorded with every result. Go's own VCS stamping is off: it
# fails the build where git distrusts the checkout, and the driver's checkout
# is no repository at all.
commit=unknown
if rev="$(git -C "$here" rev-parse --short=12 HEAD 2>/dev/null)"; then
	commit="$rev$(git -C "$here" diff --quiet HEAD -- 2>/dev/null || echo +dirty)"
fi
go -C "$here" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/dpabench-fixed" .
exec "$out/dpabench-fixed" "$@"
