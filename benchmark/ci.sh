#!/usr/bin/env bash
# Smoke test for CI: the benchmark crate's unit tests, then every workload
# once for 0.3 s, untraced and traced, with all correctness checks on and
# no bounds. Fails on any violation, and if running the benchmark changed
# any file that git sees (its outputs belong in ignored directories).
#
# Not wired into .github/workflows/ci.yml yet: that file is outside this
# directory. A later change adds one step: `run: benchmark/ci.sh`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

tree_state() {
    if command -v git >/dev/null && git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        git status --porcelain
    fi
}
before="$(tree_state)"

CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}" \
    cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml

benchmark/run.sh --quick
benchmark/run.sh --quick --trace

if [ "$(tree_state)" != "$before" ]; then
    echo "benchmark/ci.sh: running the benchmark changed tracked or unignored files:" >&2
    diff <(echo "$before") <(tree_state) >&2 || true
    exit 1
fi
echo "benchmark/ci.sh: ok"
