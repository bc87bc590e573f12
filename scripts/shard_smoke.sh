#!/usr/bin/env bash
# Shard determinism smoke: the figure campaign's merged RunSummary JSON
# must be byte-identical whatever the shard count and FEL backend. Runs
# the fig5+fig6 smoke campaign for one or more `shards:fel` cells and
# byte-diffs every cell's figure output against the `1:calendar`
# reference cell. Since each cell equals the reference, all cells are
# pairwise identical.
#
# usage: shard_smoke.sh [SHARDS:FEL[:ARRIVAL_RUN]]...
#   shard_smoke.sh                 # full local matrix {1,2,4}×{calendar,binary_heap}
#                                  # plus the batched-arrival cell 4:calendar:64
#   shard_smoke.sh 4:binary_heap   # one cell (the CI matrix invocation)
#   shard_smoke.sh 4:calendar:64   # batched arrivals (prefetch depth 64)
#
# Sharded runs are bit-identical for every arrival-run depth, so batched
# cells diff against the same 1:calendar reference as everything else.
#
# Leaves each cell's figure JSON under target/shard-smoke/ for the CI
# artifact upload. Runs uncached: the point is recomputation agreeing,
# not the cache answering twice.
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    echo "shard_smoke.sh: registry unreachable, continuing with --offline" >&2
    OFFLINE=(--offline)
fi

OUT=target/shard-smoke
CELLS=("$@")
if [ ${#CELLS[@]} -eq 0 ]; then
    CELLS=(1:calendar 2:calendar 4:calendar 1:binary_heap 2:binary_heap 4:binary_heap
           4:calendar:64)
fi

run_cell() { # SHARDS FEL ARRIVAL_RUN DIR
    cargo run "${OFFLINE[@]}" --release -p vmprov-experiments --bin repro -- \
        figures fig5 fig6 --mode smoke --no-cache --shards "$1" --fel "$2" \
        --arrival-run "$3" --out "$4"
}

rm -rf "$OUT"
echo "shard_smoke.sh: reference cell 1:calendar" >&2
run_cell 1 calendar 1 "$OUT/s1_calendar_r1"

for cell in "${CELLS[@]}"; do
    IFS=: read -r shards fel arun <<< "$cell"
    arun="${arun:-1}"
    dir="$OUT/s${shards}_${fel}_r${arun}"
    if [ "$dir" != "$OUT/s1_calendar_r1" ]; then
        echo "shard_smoke.sh: cell ${cell}" >&2
        run_cell "$shards" "$fel" "$arun" "$dir"
    fi
    for fig in fig5 fig6; do
        if ! diff -q "$OUT/s1_calendar_r1/$fig.json" "$dir/$fig.json" >&2; then
            echo "shard_smoke.sh: FAIL — $fig summaries at shards=$shards fel=$fel" \
                 "arrival-run=$arun differ from the 1:calendar reference" >&2
            exit 1
        fi
    done
    echo "shard_smoke.sh: cell ${cell} matches the reference byte for byte" >&2
done

echo "shard_smoke.sh: ok (${#CELLS[@]} cell(s))" >&2
