#!/usr/bin/env bash
# The benchmark's one entry point: builds the harness from source (offline,
# into $CARGO_TARGET_DIR, which the benchmark driver sets to .bench_build at
# the root of its checkout, or else into benchmark/target) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh all [--seed N] [--smoke]    every workload, both passes
#   benchmark/run.sh aa  [--seed N]              same build twice, compared
#
# With no arguments it runs `all`. See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
[ "$#" -gt 0 ] || set -- all
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
