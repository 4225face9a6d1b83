#!/usr/bin/env bash
# Builds from source (a no-op once built) the product's own `aria-node`,
# from the root workspace under its lock file, and the benchmark, into
# one target directory, so `live_udp` finds the node binary it drives as
# the sibling of `benchmark` (like `aria-cluster` does). Then runs
# `benchmark` with the given arguments. See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/../Cargo.toml" \
    --package aria-node --bin aria-node >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
