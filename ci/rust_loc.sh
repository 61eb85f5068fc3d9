#!/usr/bin/env bash
# Non-test Rust lines under crates/: every crates/*/src/**/*.rs except
# tests.rs, counted up to its first `#[cfg(test)]` (ROADMAP item 6's rule).
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' ! -name tests.rs -print0 |
    xargs -0 awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n }'
