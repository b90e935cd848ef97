#!/usr/bin/env bash
# Mutation check: each mutants/*.patch plants one deliberate bug that a
# named test must catch. For every patch the script copies the working
# tree into a fresh directory under $TMPDIR, runs the named tests there
# (they must pass), applies the patch, checks the mutated package still
# builds with its tests, and runs the named tests again (they must fail).
# It fails when a patch no longer applies or builds, when the named
# tests fail before the patch, or when a mutant survives.
#
# A patch opens with header lines before its diff:
#
#   # mutant: what the bug is
#   # package: ./internal/core
#   # run: ^(TestA|TestB)$
#   # flags: -race              (optional extra go test flags)
#
# Usage: scripts/mutants.sh [mutants/NAME.patch ...]   (default: all)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
GO=${GO:-go}

patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
	patches=(mutants/*.patch)
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT

failed=0
for p in "${patches[@]}"; do
	name=$(basename "$p" .patch)
	pkg=$(sed -n 's/^# package: *//p' "$p")
	run=$(sed -n 's/^# run: *//p' "$p")
	flags=$(sed -n 's/^# flags: *//p' "$p")
	if [ -z "$pkg" ] || [ -z "$run" ]; then
		echo "FAIL $name: the header names no package or no run pattern"
		failed=1
		continue
	fi
	src="$work/$name"
	mkdir -p "$src"
	git ls-files -z --cached --others --exclude-standard |
		while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
		tar --null -T - -cf - | tar -xf - -C "$src"
	# shellcheck disable=SC2086 # flags is a word list
	if ! (cd "$src" && $GO test -count=1 $flags -run "$run" "$pkg" >"$work/$name.log" 2>&1); then
		echo "FAIL $name: $run fails on the unmutated tree"
		cat "$work/$name.log"
		failed=1
		continue
	fi
	if ! patch -s -p1 --fuzz=0 -d "$src" <"$p" >"$work/$name.log" 2>&1; then
		echo "FAIL $name: the patch no longer applies"
		cat "$work/$name.log"
		failed=1
		continue
	fi
	# shellcheck disable=SC2086
	if ! (cd "$src" && $GO test -count=1 $flags -run '^$' "$pkg" >"$work/$name.log" 2>&1); then
		echo "FAIL $name: the mutant no longer builds"
		cat "$work/$name.log"
		failed=1
		continue
	fi
	# shellcheck disable=SC2086
	if (cd "$src" && $GO test -count=1 $flags -run "$run" "$pkg" >"$work/$name.log" 2>&1); then
		echo "FAIL $name: the mutant survived $run"
		failed=1
		continue
	fi
	echo "ok   $name: killed by $run"
	rm -rf "$src"
done
exit $failed
