#!/usr/bin/env bash
# Builds the benchmark crate and runs it from the repo root.
#
#   benchmark/run.sh                         one set: every workload, one run each
#   benchmark/run.sh --trace                 the traced set: per-layer metrics and Chrome traces
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run; its result is the last line of stdout
#   benchmark/run.sh --selfcheck             two sets of the same build must agree
#   benchmark/run.sh compare A.json B.json   judge set B against set A
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The driver names the target directory (relative to the repo root, where
# we now are); on its own the crate builds into benchmark/target.
target="${CARGO_TARGET_DIR:-benchmark/target}"

# Build output goes to stderr: stdout carries results only.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml 1>&2

exec "$target/release/benchmark" "$@"
