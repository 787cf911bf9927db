#!/usr/bin/env bash
# Runs `cargo test` on named tests and fails when a name matches no test.
# libtest treats a name as a substring filter and exits 0 when it matches
# nothing ("0 passed; N filtered out"), so a test that moved or was
# renamed would otherwise leave its CI step green while it runs nothing.
#
# Usage: .github/test-named.sh <cargo test arguments> -- <name>...
set -euo pipefail
args=()
while [[ $# -gt 0 && $1 != -- ]]; do
  args+=("$1")
  shift
done
if [[ $# -lt 2 ]]; then
  echo "usage: $0 <cargo test arguments> -- <name>..." >&2
  exit 2
fi
shift
for name in "$@"; do
  listed=$(cargo test "${args[@]}" -- --list "$name")
  if ! grep -q ': test$' <<<"$listed"; then
    echo "error: no test matches '$name' in: cargo test ${args[*]}" >&2
    exit 1
  fi
done
cargo test "${args[@]}" -- "$@"
