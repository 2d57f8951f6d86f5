#!/usr/bin/env bash
# loc.sh — the code-line count simplicity PRs report: Rust sources under
# `src` and `crates/*/src`, each file cut at its first `#[cfg(test)]`
# (unit-test modules sit at the end of a file), blank and comment-only
# lines dropped. Prints one row per crate and a total; no threshold.
#
# Usage: tools/loc.sh [-v] [ROOT]   (-v adds one row per file;
#                                    ROOT defaults to the repo root)
set -euo pipefail

verbose=0
if [ "${1:-}" = "-v" ]; then
  verbose=1
  shift
fi
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

count() { # code lines of one file
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
       /^[[:space:]]*(\/\/|$)/ { next }
       { n++ }
       END { print n + 0 }' "$1"
}

total=0
for dir in "$root/src" "$root"/crates/*/src; do
  crate=0
  while IFS= read -r f; do
    n=$(count "$f")
    crate=$((crate + n))
    [ "$verbose" = 1 ] && printf '  %6d  %s\n' "$n" "${f#"$root"/}"
  done < <(find "$dir" -name '*.rs' | sort)
  printf '%6d  %s\n' "$crate" "${dir#"$root"/}"
  total=$((total + crate))
done
printf '%6d  total\n' "$total"
