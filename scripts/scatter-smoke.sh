#!/usr/bin/env bash
# scatter-smoke: prove the distributed serving path end-to-end. Start
# two shard daemons (each holding its round-robin slice of the same
# synthetic dataset) and a coordinator fanning out to them as an
# ordinary client of their public API (/healthz, POST /query, /admin/*
# and nothing else: a shard daemon has no shard-only route, which the
# 404 check below pins), drive mixed query/expression/limit traffic
# through the coordinator, a single-node daemon and a daemon holding the
# same two shards in process (-index sharded -shards 2: the code the
# coordinator runs, over the other transport, so a divergence between
# those two localises to the transport), and require byte-identical
# answers — before mutations, with pending inserts and a delete, and
# after the delta merge. Then kill -9 one shard daemon and
# require the coordinator to answer with a clean partial-failure error
# naming the dead shard, and its own /stats to keep answering (it never
# reaches into a shard). Exercised by `make scatter-smoke` and the CI
# matrix.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
single_port=18840
shard0_port=18841
shard1_port=18842
coord_port=18843
local_port=18844
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "scatter-smoke: building setcontaind"
go build -o "$tmp/setcontaind" ./cmd/setcontaind

data_flags=(-synthetic 4000 -domain 150 -seed 9)

wait_healthy() {
    local port=$1 log=$2
    for _ in $(seq 1 100); do
        if curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "scatter-smoke: daemon on :$port did not become healthy; log follows" >&2
    cat "$log" >&2
    return 1
}

start_daemon() { # args: log-name, daemon flags...
    local log="$tmp/$1.log"
    shift
    "$tmp/setcontaind" "$@" >>"$log" 2>&1 &
    pids+=($!)
    disown $!
}

echo "scatter-smoke: starting single-node reference, in-process sharded daemon, two shard daemons, coordinator"
start_daemon single -addr "127.0.0.1:$single_port" "${data_flags[@]}" -index oif
start_daemon local -addr "127.0.0.1:$local_port" "${data_flags[@]}" -index sharded -shards 2
start_daemon shard0 -addr "127.0.0.1:$shard0_port" "${data_flags[@]}" -shard-of 0 -shard-count 2 -index oif
start_daemon shard1 -addr "127.0.0.1:$shard1_port" "${data_flags[@]}" -shard-of 1 -shard-count 2 -index oif
wait_healthy $single_port "$tmp/single.log"
wait_healthy $local_port "$tmp/local.log"
wait_healthy $shard0_port "$tmp/shard0.log"
wait_healthy $shard1_port "$tmp/shard1.log"
start_daemon coord -addr "127.0.0.1:$coord_port" \
    -coordinator "http://127.0.0.1:$shard0_port,http://127.0.0.1:$shard1_port"
wait_healthy $coord_port "$tmp/coord.log"
shard1_pid=${pids[3]}

single="http://127.0.0.1:$single_port"
coord="http://127.0.0.1:$coord_port"
local_sharded="http://127.0.0.1:$local_port"

# The coordinator is a router: a shard plans for itself, so the route
# that used to ship its support table is gone.
status=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$shard0_port/shard/supports")
if [ "$status" != 404 ]; then
    echo "scatter-smoke: GET /shard/supports on a shard daemon answered $status, want 404" >&2
    exit 1
fi

# Mixed traffic: plain predicates, boolean expressions, and limits.
# (+ encodes a space in the query string; -g keeps curl from globbing
# the braces.) The two NOTs over subset leaves are the ones an OIF
# shard may answer at its accumulator's candidates.
queries=(
    'query?q=subset{3+17}'
    'query?q=equality{3+17}'
    'query?q=superset{1+2+3}'
    'query?q=subset{3}+and+not+superset{17}'
    'query?q=(subset{2}+or+subset{5})+and+not+equality{2+5}'
    'query?q=subset{3+17}+and+not+subset{2+5}'
    'query?q=subset{1}&limit=5'
    'query?q=subset{2}+or+subset{7}&limit=12'
    'query?q=subset{3}+and+not+subset{2+5}&limit=5'
)

compare_all() {
    local stage=$1
    for q in "${queries[@]}"; do
        a=$(curl -sfg "$single/$q")
        b=$(curl -sfg "$coord/$q")
        c=$(curl -sfg "$local_sharded/$q")
        if [ "$a" != "$b" ] || [ "$a" != "$c" ]; then
            echo "scatter-smoke: $stage: answers diverged for $q" >&2
            echo "  single:             $a" >&2
            echo "  coordinator:        $b" >&2
            echo "  in-process sharded: $c" >&2
            exit 1
        fi
    done
    digest=$(for q in "${queries[@]}"; do curl -sfg "$coord/$q"; done | sha256sum | cut -d' ' -f1)
    echo "scatter-smoke: $stage: answers identical (digest ${digest:0:12})"
}

compare_all "built"

# Mutations through all three front doors: the assigned global ids must
# match, and answers must stay identical while the delta is pending and
# after the merge folds it in.
ids_single=$(curl -sf -d '{"sets":[[3,17,42],[1,2,3],[17]]}' "$single/admin/insert")
for front in "$coord" "$local_sharded"; do
    ids=$(curl -sf -d '{"sets":[[3,17,42],[1,2,3],[17]]}' "$front/admin/insert")
    if [ "$ids_single" != "$ids" ]; then
        echo "scatter-smoke: insert ids diverged: single $ids_single, $front $ids" >&2
        exit 1
    fi
done
for front in "$single" "$coord" "$local_sharded"; do
    curl -sf -d '{"ids":[5,17]}' "$front/admin/delete" >/dev/null
done
compare_all "pending"

for front in "$single" "$coord" "$local_sharded"; do
    curl -sf -X POST "$front/admin/merge" >/dev/null
done
compare_all "merged"

# Partial failure: kill one shard daemon outright. The coordinator must
# answer with an error naming the dead shard — not hang, not return a
# silently partial answer.
echo "scatter-smoke: kill -9 shard 1"
kill -9 "$shard1_pid"
for _ in $(seq 1 50); do
    kill -0 "$shard1_pid" 2>/dev/null || break
    sleep 0.1
done
resp=$(curl -sfg --max-time 10 "$coord/query?q=subset{3}")
case "$resp" in
*'"error"'*'shard 1'*)
    echo "scatter-smoke: partial failure reported cleanly: $(echo "$resp" | head -c 120)" ;;
*)
    echo "scatter-smoke: expected a shard 1 error from the coordinator, got: $resp" >&2
    exit 1 ;;
esac
# The coordinator's own /stats touches no shard, dead or alive.
if ! stats=$(curl -sf --max-time 2 "$coord/stats") || [[ "$stats" != *'"planner"'* ]]; then
    echo "scatter-smoke: coordinator /stats did not answer within 2 s of a shard dying: $stats" >&2
    exit 1
fi
echo "scatter-smoke: coordinator /stats still answers with shard 1 dead"

echo "scatter-smoke: ok"
