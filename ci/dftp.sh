#!/usr/bin/env bash
# Reusable CI wrapper for the dftp CLI: every workflow step that drives
# the binary goes through this helper instead of repeating the full
# `cargo run` invocation in YAML. Runs against the release profile so CI
# steps reuse the build job's artifacts.
set -euo pipefail
exec cargo run --release --quiet --bin dftp -- "$@"
