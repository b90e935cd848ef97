#!/bin/sh
# api-surface.sh — print the public surface of setcontain and
# setcontain/serve: every exported declaration as `go doc -all` lists it
# (doc comments stripped), the exported function+method count per
# package, and the non-test line count of setcontain/. internal/wire is
# listed and counted with them: serve re-exports its JSON bodies as
# aliases, and `go doc` hides an alias's struct fields. Two more size
# lines count the layers below the engine, which have no exported surface
# to list but whose growth or shrinkage a PR should show just the same:
# the index layer (the three index packages, their dataset model and the
# shared update overlay) and the storage layer under it (the B-tree, the
# IF's list store, and the pager and buffer pool), where a page-format
# change lands. Another line counts internal/stats, the skew profiler
# both the shard planner and the expression planner read, and the last
# one the test lines of setcontain/ and setcontain/serve/, which the
# one-oracle harness (FuzzModel) keeps in check. `make api-surface` writes the output to docs/API.txt,
# which is checked in so a PR that grows any of them shows it in its
# diff; the CI docs job fails when the file is stale.
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
# lines DIR... prints the non-test Go line count of the directories.
lines() {
    for dir in "$@"; do ls "$dir"/*.go; done | grep -v _test.go | xargs cat | wc -l | tr -d ' '
}
echo "setcontain/ + internal/wire non-test lines: $(lines setcontain setcontain/serve internal/wire)"
echo "index layer (internal/core, invfile, ubtree, dataset, overlay) non-test lines: $(lines internal/core internal/invfile internal/ubtree internal/dataset internal/overlay)"
echo "storage layer (internal/btree, storage, liststore) non-test lines: $(lines internal/btree internal/storage internal/liststore)"
echo "skew planner (internal/stats) non-test lines: $(lines internal/stats)"
echo "setcontain/ + setcontain/serve/ test lines: $(cat setcontain/*_test.go setcontain/serve/*_test.go | wc -l | tr -d ' ')"
