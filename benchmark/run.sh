#!/usr/bin/env bash
# Build rootbench offline and run it with the given arguments.
#
#   benchmark/run.sh --workload farm_hit --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh [--seed N] [--traced] [--repeat N] [--selfcheck]
#
# Run from anywhere; build output goes to $CARGO_TARGET_DIR, or to the
# repository's target/ directory when that is unset.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Cargo's progress goes to stderr: standard output stays the program's.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
case "$CARGO_TARGET_DIR" in
  /*) bin="$CARGO_TARGET_DIR/release/rootbench" ;;
  *) bin="./$CARGO_TARGET_DIR/release/rootbench" ;;
esac
exec "$bin" "$@"
