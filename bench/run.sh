#!/usr/bin/env bash
# Builds the server, worker and precompute binaries and the benchmark program
# (dftspbench) from the checkout this script sits in, then runs it:
#
#   bash bench/run.sh --workload table1-synth --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache and
# every scratch directory live under .bench_build/ in that root, so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/server" ]]; then
	echo "bench: run from the repository root (no go.mod or cmd/server here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local

# Build output goes to stderr: the last line of stdout is the result.
go build -o "$out/bin/" ./cmd/server ./cmd/worker ./cmd/precompute 1>&2
(cd "$root/bench" && go build -o "$out/bin/dftspbench" .) 1>&2

exec "$out/bin/dftspbench" -root "$root" -out "$out" "$@"
