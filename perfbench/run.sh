#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs the benchmark.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload <cold_mix|hot_shared|warm_drift|hot_repeat> \
#       --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p suu-service --bin suu_serviced >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    --target-dir "$target" >&2
exec "$target/release/suu-perfbench" "$@" \
    --daemon "$target/release/suu_serviced" --out "$target/perfbench"
