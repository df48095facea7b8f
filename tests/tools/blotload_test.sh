#!/usr/bin/env bash
# Smoke test for the blotload macro-benchmark driver and the serving
# path of blotctl store-query. Runs both loops at tiny scale and checks
# the BENCH_serving.json shape the tripwire consumes plus the
# concurrency flags of store-query. Usage:
#   blotload_test.sh <path-to-blotload> <path-to-blotctl>
set -u
BLOTLOAD="$1"
BLOTCTL="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $1" >&2; exit 1; }

# --- blotload: both loops, tiny budget, must stay consistent ----------
"$BLOTLOAD" --records 6000 --shapes 8 --duration-s 0.3 --io-ms 3 \
    --out serving.json || fail "blotload run"
[ -s serving.json ] || fail "report missing"
grep -q '"schema": "blot.bench.v1"' serving.json || fail "schema"
grep -q '"bench": "serving"' serving.json || fail "bench name"
grep -q 'closed_loop_scaling_8v1_speedup' serving.json || fail "scaling metric"
grep -q 'overload_shed_rate_pct' serving.json || fail "shed metric"
grep -q 'closed_loop_p99_ms_w8' serving.json || fail "p99 metric"
grep -q '"name": "result_mismatches", "value": 0' serving.json \
    || fail "mismatch-free run"

# Single-mode runs exercise the mode switch.
"$BLOTLOAD" --mode closed --records 4000 --shapes 4 --duration-s 0.2 \
    --threads 1,2 --out closed.json || fail "closed-only run"
grep -q 'closed_loop_qps_w2' closed.json || fail "closed-only metrics"
grep -q 'overload_shed_rate_pct' closed.json && fail "closed-only has open metrics"

"$BLOTLOAD" --mode open --records 4000 --shapes 4 --duration-s 0.2 \
    --out open.json || fail "open-only run"
grep -q 'overload_shed_rate_pct' open.json || fail "open-only metrics"

# Usage errors must be caught (structured InvalidArgument, not a crash)
# and exit 2 with the usage text, never abort.
"$BLOTLOAD" --mode sideways 2>/dev/null && fail "bad mode accepted"
"$BLOTLOAD" --no-such-flag 1 2>/dev/null && fail "unknown flag accepted"
"$BLOTLOAD" --help 2>usage.txt
[ $? -eq 2 ] || fail "--help exit code"
grep -q "usage: blotload" usage.txt || fail "--help prints no usage"
"$BLOTLOAD" --no-such-flag 1 2>usage.txt
[ $? -eq 2 ] || fail "unknown flag exit code"
grep -q "usage: blotload" usage.txt || fail "unknown flag prints no usage"

# --- blotctl store-query --concurrency/--repeat -----------------------
"$BLOTCTL" generate --out fleet.bin --taxis 10 --samples 150 \
    || fail "generate"
"$BLOTCTL" store-build --data fleet.bin --out store \
    --schemes "KD4xT4/ROW-SNAPPY;KD16xT8/COL-GZIP" || fail "store-build"

OUT="$("$BLOTCTL" store-query --dir store \
    --range 120.9,121.1,30.9,31.1,1193875200,1194000000 \
    --concurrency 4 --repeat 12)" || fail "concurrent store-query"
echo "$OUT" | grep -q "routed to replica" || fail "routing line"
echo "$OUT" | grep -q "12 runs on 4 workers" || fail "summary line"
echo "$OUT" | grep -q "p95" || fail "latency percentiles"

# --profile still prints the stage breakdown on the serving path.
"$BLOTCTL" store-query --dir store \
    --range 120.9,121.1,30.9,31.1,1193875200,1194000000 \
    --concurrency 2 --repeat 4 --profile | grep -q "route" \
    || fail "profile under concurrency"

# Exit-code contract: usage errors stay 2, with or without concurrency.
"$BLOTCTL" store-query --dir store --range bogus --concurrency 2 --repeat 2
[ $? -eq 2 ] || fail "usage error code"
"$BLOTCTL" store-query --dir store \
    --range 120.9,121.1,30.9,31.1,1193875200,1194000000 \
    --concurrency 0 2>/dev/null
[ $? -eq 2 ] || fail "zero concurrency rejected as usage error"
# --trace is single-run-only and must say so as a usage error.
"$BLOTCTL" store-query --dir store \
    --range 120.9,121.1,30.9,31.1,1193875200,1194000000 \
    --concurrency 2 --repeat 2 --trace 2>/dev/null
[ $? -eq 2 ] || fail "trace + concurrency rejected as usage error"

echo "PASS"
