#!/usr/bin/env bash
# Builds fullweb and the benchmark driver from this checkout, then runs
# the driver. Every build output and run artifact stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build).
#
#   bash perfbench/run.sh --workload dense-offline --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOPATH=$out/gopath GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/fullweb" ./cmd/fullweb
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin/fullweb" -work "$out" "$@"
