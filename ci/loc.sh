#!/usr/bin/env bash
# Net non-test lines of Rust between a revision and the working tree:
# `ci/loc.sh <rev> <path>…` (paths relative to the repository root).
#
# A file's count is its lines that are neither blank nor a `//` comment
# (`///` and `//!` included) before the first line that starts with
# `#[cfg(test)]`. Every `.rs` file under the paths, at <rev> or in the
# working tree, prints its count on both sides and the difference; the
# last line is the total. A file absent on one side counts 0 there.
set -euo pipefail
if [ $# -lt 2 ]; then
  echo "usage: $0 <rev> <path>..." >&2
  exit 2
fi
rev=$1
shift
cd "$(git rev-parse --show-toplevel)"

# Reads its input to the end (no early `exit`), so `git show | count`
# never dies of SIGPIPE under `pipefail`.
count() {
  awk '/^#\[cfg\(test\)\]/ { tests = 1 } !tests && !/^[ \t]*(\/\/|$)/ { n++ } END { print n + 0 }'
}

{
  git ls-tree -r --name-only "$rev" -- "$@"
  git ls-files --cached --others --exclude-standard -- "$@"
} | grep '\.rs$' | sort -u | {
  printf '%8s %8s %8s  %s\n' before after delta file
  total_before=0
  total_after=0
  while read -r file; do
    before=0
    after=0
    if git cat-file -e "$rev:$file" 2> /dev/null; then
      before=$(git show "$rev:$file" | count)
    fi
    if [ -f "$file" ]; then
      after=$(count < "$file")
    fi
    printf '%8d %8d %+8d  %s\n' "$before" "$after" $((after - before)) "$file"
    total_before=$((total_before + before))
    total_after=$((total_after + after))
  done
  printf '%8d %8d %+8d  %s\n' "$total_before" "$total_after" \
    $((total_after - total_before)) total
}
