#!/usr/bin/env bash
# Cache smoke test: run the fig5+fig6 smoke campaign twice against a
# fresh run cache and assert that the second (warm) pass is answered
# from the cache — ≥90% hits, at most half the cold pass's campaign
# wall-clock (in practice it is <1%; the bound only needs to survive a
# loaded CI machine) — and that it reproduces the cold pass's figure
# output byte for byte. A third/fourth pass repeat the exercise with
# `--shards 2`: the sharded cells must MISS the serial entries (the
# schema-v3 key includes the shard count — sharded runs are a different
# deterministic stream, so aliasing them onto serial entries would
# serve wrong results) and then hit their own entries when warm.
# Every pass is its own process appending to one log, so the script
# finally checks the directory holds that log alone (no per-entry or
# temp files) with one line per cold miss: warm passes append nothing.
# Leaves cache_stats_{cold,warm,sharded_cold,sharded_warm}.json under
# target/cache-smoke/ for the CI artifact upload.
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    echo "cache_smoke.sh: registry unreachable, continuing with --offline" >&2
    OFFLINE=(--offline)
fi

OUT=target/cache-smoke
CACHE=target/ci-runcache
rm -rf "$OUT" "$CACHE"

run_pass() { # extra repro args...
    cargo run "${OFFLINE[@]}" --release -p vmprov-experiments --bin repro -- \
        figures fig5 fig6 --mode smoke --out "$OUT" --cache "$CACHE" "$@"
}

echo "cache_smoke.sh: cold pass" >&2
run_pass
cp "$OUT/cache_stats.json" "$OUT/cache_stats_cold.json"
cp "$OUT/fig5.json" "$OUT/fig5_cold.json"
cp "$OUT/fig6.json" "$OUT/fig6_cold.json"

echo "cache_smoke.sh: warm pass" >&2
run_pass
cp "$OUT/cache_stats.json" "$OUT/cache_stats_warm.json"

# Cache hits must be bit-identical to fresh runs.
diff -q "$OUT/fig5_cold.json" "$OUT/fig5.json"
diff -q "$OUT/fig6_cold.json" "$OUT/fig6.json"

# Sharded cells key separately from the serial entries above (v3 cache
# schema: `shards` is in every key), then hit their own entries.
echo "cache_smoke.sh: sharded cold pass (--shards 2)" >&2
run_pass --shards 2
cp "$OUT/cache_stats.json" "$OUT/cache_stats_sharded_cold.json"

echo "cache_smoke.sh: sharded warm pass (--shards 2)" >&2
run_pass --shards 2
cp "$OUT/cache_stats.json" "$OUT/cache_stats_sharded_warm.json"

python3 - "$OUT/cache_stats_sharded_cold.json" "$OUT/cache_stats_sharded_warm.json" <<'EOF'
import json
import sys

cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
print(f"cache_smoke.sh: sharded cold {cold['cache_hits']}/{cold['jobs']} "
      f"hits; sharded warm {warm['cache_hits']}/{warm['jobs']} hits",
      file=sys.stderr)
assert cold["jobs"] > 0, "sharded campaign ran no jobs"
assert cold["cache_hits"] == 0, (
    "sharded cold pass hit the cache — sharded keys alias serial entries")
assert warm["cache_hits"] * 10 >= warm["jobs"] * 9, (
    f"sharded warm pass hit rate {warm['cache_hits']}/{warm['jobs']} "
    f"is below 90%")
EOF

python3 - "$OUT/cache_stats_cold.json" "$OUT/cache_stats_warm.json" <<'EOF'
import json
import sys

cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
print(f"cache_smoke.sh: cold {cold['cache_hits']}/{cold['jobs']} hits "
      f"in {cold['wall_secs']:.3f}s; warm {warm['cache_hits']}/{warm['jobs']} "
      f"hits in {warm['wall_secs']:.3f}s", file=sys.stderr)
assert cold["jobs"] > 0, "campaign ran no jobs"
assert cold["cache_hits"] == 0, "cold pass hit a cache that should be fresh"
assert warm["jobs"] == cold["jobs"], "passes disagree on the job count"
assert warm["cache_hits"] * 10 >= warm["jobs"] * 9, (
    f"warm pass hit rate {warm['cache_hits']}/{warm['jobs']} is below 90%")
assert warm["wall_secs"] * 2 <= cold["wall_secs"], (
    f"warm pass ({warm['wall_secs']:.3f}s) is not measurably faster than "
    f"cold ({cold['wall_secs']:.3f}s)")
EOF

python3 - "$CACHE" "$OUT/cache_stats_cold.json" "$OUT/cache_stats_sharded_cold.json" <<'EOF'
import json
import os
import sys

cache = sys.argv[1]
names = sorted(os.listdir(cache))
files = [n for n in names if os.path.isfile(os.path.join(cache, n))]
assert not any(n.startswith(".tmp-") for n in names), (
    f"temp files left in the cache directory: {names}")
assert len(files) == 1 and files == names, (
    f"the cache directory must hold exactly one log file, found {names}")
with open(os.path.join(cache, files[0]), "rb") as log:
    lines = log.read().count(b"\n")
stored = sum(json.load(open(p))["cache_misses"] for p in sys.argv[2:])
print(f"cache_smoke.sh: {files[0]} holds {lines} record(s) for {stored} "
      f"cold miss(es)", file=sys.stderr)
assert lines == stored, (
    f"log holds {lines} lines, expected one per cold miss ({stored}); "
    f"warm passes must append nothing")
EOF

echo "cache_smoke.sh: ok" >&2
