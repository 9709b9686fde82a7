#!/usr/bin/env bash
# stackbench: builds `cdba-cli` and the harness, then runs the benchmark.
#
#   benchmark/run.sh                      full set: 5 workloads x 3 passes, every metric by name
#   benchmark/run.sh --trace              ... plus one traced pass: per-layer metrics, out/ledger.md
#   benchmark/run.sh --smoke              all five workloads at 1/50 scale, all checks on
#   benchmark/run.sh --calibrate          5 timed sets at one seed + 10 across seeds; writes the bounds into BENCHMARK.json
#   benchmark/run.sh --selfcheck          two timed sets must agree within the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one timed run; the last line is the result object
#
# Exits non-zero on any failed check. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p cdba-bench --bin cdba-cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

STACKBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
STACKBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export STACKBENCH_COMMIT STACKBENCH_RUSTC

exec "$CARGO_TARGET_DIR/release/stackbench" \
    --cli "$CARGO_TARGET_DIR/release/cdba-cli" --home benchmark "$@"
