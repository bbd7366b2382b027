#!/usr/bin/env bash
# Workspace invariant lint: builds memx-lint and runs it over crates/
# and src/. Exits nonzero on any unsuppressed finding — same gate CI
# applies. See crates/xlint/src/lib.rs for the lints and the
# suppression syntax.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo run -p xlint --release --quiet -- --workspace
