#!/usr/bin/env bash
# Compare two result files written by run.sh against the bounds in
# BENCHMARK.json. Exits non-zero on any row out of bound or unresolved.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/benchmark" compare --root "$here" "$@"
