#!/bin/sh
# api-surface.sh — print the public surface of setcontain and
# setcontain/serve: every exported declaration as `go doc -all` lists it
# (doc comments stripped), the exported function+method count per
# package, and the non-test line count of setcontain/. internal/wire is
# listed and counted with them: serve re-exports its JSON bodies as
# aliases, and `go doc` hides an alias's struct fields. `make
# api-surface` writes the output to docs/API.txt, which is checked in
# so a PR that grows the surface shows it in its diff; the CI docs job
# fails when the file is stale.
set -eu

cd "$(dirname "$0")/.."

for pkg in ./setcontain ./setcontain/serve ./internal/wire; do
    echo "== $pkg"
    # Declarations start at column 0 after the first section header;
    # doc text is indented four spaces, struct-field comments are
    # tab-indented // lines.
    go doc -all "$pkg" | awk '
        /^(CONSTANTS|VARIABLES|FUNCTIONS|TYPES)$/ { body = 1; next }
        !body || /^    / || /^\t+\/\// || /^$/ { next }
        { print }
        /^func / { funcs++ }
        END { printf "-- %d exported functions and methods\n\n", funcs }'
done
echo "== size"
echo "setcontain/ + internal/wire non-test lines: $(cat $(ls setcontain/*.go setcontain/serve/*.go internal/wire/*.go | grep -v _test.go) | wc -l | tr -d ' ')"
