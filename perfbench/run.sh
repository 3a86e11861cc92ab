#!/usr/bin/env bash
# Builds indord-serve and the benchmark from this checkout (release), then
# runs one benchmark pass:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); data
# directories of a run go under .bench_run and are removed when it ends.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p indord-server --bin indord-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# The benchmark and every server it starts share one CPU (the first this
# shell may use). With one closed-loop connection only one of them works
# at a time; pinned, none of them waits on a wake-up sent to the other
# vCPU, which in a VM costs an exit and waits whenever the host has that
# vCPU descheduled (see README.md).
cpu=$(taskset -pc $$ | sed 's/.*: *//; s/[^0-9].*//')
taskset -c "$cpu" "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/indord-serve" --work-dir .bench_run "$@" &
bench=$!
# On interruption, stop the servers the benchmark started, then the benchmark.
trap 'pkill -KILL -P "$bench" 2>/dev/null || true; kill "$bench" 2>/dev/null || true; wait "$bench" || true; exit 130' INT TERM
wait "$bench"
