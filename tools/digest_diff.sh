#!/bin/sh
# Compare the detection reports of this checkout with those of another
# revision.  Extracts <rev>'s src/ into a temporary directory, runs this
# checkout's tools/report_digest.py against both source trees, and prints
# the diff of the two outputs.  Exits 0 when they are identical, 1 when
# they differ, 2 on a usage or extraction error.
#
#     tools/digest_diff.sh HEAD~1
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/old"
git -C "$root" archive "$1" src | tar -x -C "$tmp/old" || exit 2
PYTHONPATH="$tmp/old/src" python3 "$root/tools/report_digest.py" \
    > "$tmp/old.txt" || exit 2
PYTHONPATH="$root/src" python3 "$root/tools/report_digest.py" \
    > "$tmp/new.txt" || exit 2
if diff "$tmp/old.txt" "$tmp/new.txt"; then
    tail -n 1 "$tmp/new.txt"
else
    exit 1
fi
