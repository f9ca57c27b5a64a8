#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. Arguments go to the
# binary unchanged; see README.md or `run.sh --help`.
#
#   benchmark/run.sh --workload swarm_thin --seed 5 --seconds 15 --trace 0
#   benchmark/run.sh --out results.json      # all six workloads, both ways
#   benchmark/run.sh --smoke                 # the same in a few seconds
set -euo pipefail
cd "$(dirname "$0")/.."
# The benchmark is its own workspace; keep its build out of the root target/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's progress goes to stderr and only when something fails or rebuilds.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/splicecast-benchmark" "$@"
