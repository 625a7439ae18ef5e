#!/usr/bin/env bash
# Do two full passes of the same code agree with each other?
# Usage: benchmark/agree.sh [seed] [repeat]   (defaults 1 and 3)
# Runs both passes (untraced, then traced) twice and compares the two
# result files: every end-to-end metric x workload must come out within
# its bound (or be reported unresolved), and the exact counts must match.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
repeat="${2:-3}"

bench() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }

for side in A B; do
    bench --seed "$seed" --repeat "$repeat" --trace 1
    cp benchmark/out/result.json "benchmark/out/agree-$side.json"
done
bench --compare benchmark/out/agree-A.json benchmark/out/agree-B.json
