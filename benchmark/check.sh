#!/usr/bin/env bash
# Gate for this nested package: the root workspace's CI and `pscc-analyze`
# do not see it. Run from anywhere; takes about a minute and a half.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"

bench() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }

# Every workload, both passes, short phases, no result.json.
bench --quick --seed 1 --trace 1

# A wrong answer must be caught: the hook flips one received bit, and the
# run has to say so and exit non-zero.
if bench --quick --workload serve-mixed --seed 1 --trace 0 --corrupt >/dev/null; then
    echo "check.sh: a corrupted answer went unnoticed" >&2
    exit 1
fi
# The hook does not reach the traced pass, so asking for both is refused.
if bench --quick --workload serve-mixed --seed 1 --trace 1 --corrupt 2>/dev/null; then
    echo "check.sh: --corrupt was accepted with --trace 1, where it does nothing" >&2
    exit 1
fi
# So must asking for more threads than there are cores.
if bench --quick --workload serve-mixed --width 4096 2>/dev/null; then
    echo "check.sh: a width above nproc was accepted" >&2
    exit 1
fi
echo "check.sh: ok"
