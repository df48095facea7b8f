#!/usr/bin/env bash
# End-to-end exercise of the blotctl CLI: generate -> build (uniform +
# hybrid) -> info -> query -> aggregate -> trajectory -> recover ->
# advise, plus error-path checks. Usage: blotctl_test.sh <path-to-blotctl>
set -u
BLOTCTL="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $1" >&2; exit 1; }

"$BLOTCTL" generate --out fleet.bin --taxis 15 --samples 200 \
    || fail "generate"
[ -s fleet.bin ] || fail "dataset file missing"

"$BLOTCTL" generate --out fleet.csv --taxis 5 --samples 50 --format csv \
    || fail "generate csv"
head -1 fleet.csv | grep -q "oid,time" || fail "csv header"

# The format follows the extension, so a .csv dataset reads back as CSV
# without --format; a --format that contradicts the extension is a usage
# error (exit 2) and writes nothing.
"$BLOTCTL" generate --out inferred.csv --taxis 3 --samples 20 \
    || fail "generate inferred csv"
head -1 inferred.csv | grep -q "oid,time" || fail "inferred csv header"
"$BLOTCTL" build --data inferred.csv --out rep_csv \
    --scheme KD4xT4/ROW-SNAPPY >/dev/null || fail "build from inferred csv"
"$BLOTCTL" generate --out mismatch.csv --format bin 2>/dev/null
[ $? -eq 2 ] || fail "--format bin on a .csv path: want exit 2"
"$BLOTCTL" generate --out mismatch.bin --format csv 2>/dev/null
[ $? -eq 2 ] || fail "--format csv on a .bin path: want exit 2"
[ ! -e mismatch.csv ] && [ ! -e mismatch.bin ] \
    || fail "rejected generate left a file behind"

"$BLOTCTL" build --data fleet.bin --out rep_a --scheme KD8xT4/COL-GZIP \
    || fail "build a"
"$BLOTCTL" build --data fleet.bin --out rep_b \
    --scheme KD4xT4/ROW-SNAPPY --hybrid 1 || fail "build b"
[ -s rep_a/manifest.blot ] || fail "manifest missing"

"$BLOTCTL" info --dir rep_a | grep -q "KD8xT4/COL-GZIP" || fail "info"
"$BLOTCTL" info --dir rep_b | grep -q "+HYBRID" || fail "hybrid info"

"$BLOTCTL" query --dir rep_a \
    --range 120,122,30,32,1193875200,1196294400 --limit 2 \
    | grep -q "3000 records" || fail "whole-universe query count"

"$BLOTCTL" aggregate --dir rep_a \
    --range 120,122,30,32,1193875200,1196294400 \
    | grep -q "distinct objects: 15" || fail "aggregate distinct objects"

"$BLOTCTL" trajectory --dir rep_a --oid 3 --limit 1 \
    | grep -q "object 3: 200 samples" || fail "trajectory sample count"

"$BLOTCTL" recover --from rep_a --to rep_b || fail "recover"
"$BLOTCTL" info --dir rep_b | grep -q "records:    3000" || fail "recovered"

"$BLOTCTL" advise --data fleet.bin --records 65000000 --env hadoop \
    | grep -q "recommended replicas:" || fail "advise"

"$BLOTCTL" store-build --data fleet.bin --out mystore \
    --schemes "KD4xT4/ROW-SNAPPY;KD16xT8/COL-GZIP" || fail "store-build"
# The store is its replicas: no separate copy of the dataset on disk.
[ ! -e mystore/dataset.bin ] || fail "store-build left a dataset.bin"
"$BLOTCTL" store-query --dir mystore \
    --range 120.9,121.1,30.9,31.1,1193875200,1194000000 \
    | grep -q "routed to replica" || fail "store-query routing"

# Observability surface: span trees, metric snapshots, the stats command.
TRACE="$("$BLOTCTL" store-query --dir mystore \
    --range 120.9,121.1,30.9,31.1,1193875200,1194000000 --trace)"
echo "$TRACE" | grep -q "measured_cost_ms" || fail "trace measured cost"
echo "$TRACE" | grep -q "estimated_cost_ms" || fail "trace estimated cost"
echo "$TRACE" | grep -q "execute .* partitions_scanned" || fail "trace tree"

"$BLOTCTL" query --dir rep_a \
    --range 120,122,30,32,1193875200,1196294400 --limit 1 --trace \
    | grep -q "load .* partitions" || fail "query trace"

"$BLOTCTL" store-query --dir mystore \
    --range 120.9,121.1,30.9,31.1,1193875200,1194000000 \
    --metrics-out metrics.json >/dev/null || fail "metrics-out"
grep -q '"query.routed_total"' metrics.json || fail "metrics-out contents"

"$BLOTCTL" stats --dir mystore --queries 8 > stats.json || fail "stats"
grep -q '"query.routed_total"' stats.json || fail "stats routed_total"
grep -q '"codec.decode_ms"' stats.json || fail "stats codec histograms"
grep -q '"query.cost_error_pct"' stats.json || fail "stats cost error"
"$BLOTCTL" stats --dir mystore --queries 4 --format prom \
    | grep -q "^# TYPE query_routed_total counter" || fail "stats prom"

# Error paths must fail cleanly (non-zero, no crash).
"$BLOTCTL" query --dir rep_a --range bad 2>/dev/null && fail "bad range ok?"
"$BLOTCTL" info --dir missing_dir 2>/dev/null && fail "missing dir ok?"
"$BLOTCTL" frobnicate 2>/dev/null && fail "unknown command ok?"
"$BLOTCTL" build --data fleet.bin --out x --scheme NONSENSE 2>/dev/null \
    && fail "bad scheme ok?"

echo "blotctl end-to-end: PASS"
