#!/usr/bin/env bash
# Builds the benchmark once, then runs it from the repository root.
#
#   benchmark/run.sh                                    every workload, one process each, in sequence
#   benchmark/run.sh --workload serve_mixed --seed 7    one workload
#   benchmark/run.sh --trace 1                          per-layer metrics instead of end-to-end
#   benchmark/run.sh --aa                               two sets of three suite runs of the same build; non-zero
#                                                       if any metric differs by more than half its bound
#
# The driver's form is `--workload W --seed N --seconds S --trace 0|1`; the
# last line of stdout is then one JSON object (see README.md).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# Build output goes to stderr so stdout stays the benchmark's own.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/stbench" "$@"
