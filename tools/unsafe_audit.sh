#!/usr/bin/env bash
# unsafe_audit.sh — fail if any `unsafe` in the workspace lacks a SAFETY comment;
# on success, print how many sites it audited.
#
# Policy (enforced in CI's lint job):
#   * every line of Rust source that introduces `unsafe` (a block, fn,
#     or impl) must have a `// SAFETY:` comment within the WINDOW lines
#     immediately above it (attributes and blank lines don't reset it);
#   * `#![forbid(unsafe_code)]` crates are audited too — any `unsafe`
#     there is a bug the compiler will also catch, but the audit names
#     the line before a full build does.
#
# Usage: tools/unsafe_audit.sh [ROOT]   (ROOT defaults to the repo root)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
window=6
fail=0
sites=0

# All Rust sources under the workspace, excluding build output.
mapfile -t files < <(find "$root/src" "$root/crates" -name '*.rs' -not -path '*/target/*' | sort)

for f in "${files[@]}"; do
  # Lines that mention `unsafe` outside of comments and string-ish
  # contexts. We strip line comments first, then match the keyword.
  while IFS=: read -r lineno _; do
    [ -n "$lineno" ] || continue
    sites=$((sites + 1))
    ok=0
    start=$((lineno > window ? lineno - window : 1))
    # Accept a SAFETY marker on the unsafe line itself or in the
    # preceding window.
    if sed -n "${start},${lineno}p" "$f" | grep -q 'SAFETY:'; then
      ok=1
    fi
    if [ "$ok" -eq 0 ]; then
      echo "MISSING SAFETY: $f:$lineno"
      sed -n "${lineno}p" "$f" | sed 's/^/    /'
      fail=1
    fi
  done < <(sed 's|//.*||' "$f" | grep -n '\bunsafe\b' | cut -d: -f1 | while read -r n; do echo "$n:"; done)
done

if [ "$fail" -ne 0 ]; then
  echo
  echo "unsafe audit FAILED: annotate each unsafe site with a '// SAFETY:' comment"
  echo "within $window lines above it explaining why the invariants hold."
  exit 1
fi
echo "unsafe audit OK: $sites sites, each with a SAFETY comment"
