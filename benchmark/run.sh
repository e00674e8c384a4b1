#!/usr/bin/env bash
# Build the harness, then run it: one workload when --workload is given
# (the form BENCHMARK.json's command takes), else every workload, each in a
# fresh process, with the results gathered in benchmark/out/results.json.
# Build time is no part of any metric: set-up time counts from the start of
# the harness process.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/benchmark" run --root "$here" "$@"
