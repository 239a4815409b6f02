#!/usr/bin/env bash
# Run a filtered `cargo test` (the command and its arguments, as given) and
# fail if a test binary it ran ran no test: a filter that matches nothing
# (a test renamed or moved) would otherwise pass in silence.
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$@" 2>&1 | tee "$out"
if grep -q '^running 0 tests' "$out"; then
  echo "::error::the filter matched no test: $*"
  exit 1
fi
