#!/usr/bin/env bash
# Usage: .github/loc-gate.sh <base-ref>
#
# Counts non-test Go lines outside bench/ the way CI's "non-test Go size"
# step does, in the working tree and at <base-ref>, and prints both and the
# delta. Exits 1 when the count rose and `git diff <base-ref> -- CHANGES.md`
# adds no line containing "Non-test Go": growth has to be stated and
# explained there.
set -euo pipefail
base=${1:?usage: loc-gate.sh <base-ref>}
cd "$(git rev-parse --show-toplevel)"

now=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)
files=$(git ls-tree -r --name-only "$base" | grep '\.go$' | grep -v -e '_test\.go$' -e '^bench/' || true)
was=$(for f in $files; do git show "$base:$f"; done | wc -l)
delta=$((now - was))
printf 'non-test Go lines: %d at %s, %d in the working tree (%+d)\n' "$was" "$base" "$now" "$delta"

added=$(git diff "$base" -- CHANGES.md | grep '^+' | grep -v '^+++' || true)
if ((delta > 0)) && ! grep -q 'Non-test Go' <<<"$added"; then
	echo "non-test Go grew by $delta lines, and CHANGES.md adds no line containing \"Non-test Go\" that says why" >&2
	exit 1
fi
