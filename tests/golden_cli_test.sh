#!/usr/bin/env bash
# End-to-end golden test for the tdat CLI: simulate a deterministic capture
# (fixed seeds live in cmd_simulate), run it through the JSON report sink,
# and diff byte-for-byte against the committed expected output. Also covers
# the unified argument parser's error behaviour, `tdat passes`, and the
# --detectors selection, so a CLI regression fails here rather than in a
# user's pipeline.
#
# Usage: golden_cli_test.sh <path-to-tdat> <golden-dir>
set -u

TDAT="$1"
GOLDEN_DIR="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# --- golden JSON: simulate -> analyze --json must be byte-stable ------------
"$TDAT" simulate baseline "$TMP/base.pcap" --sessions 2 >/dev/null \
  || fail "simulate exited non-zero"

"$TDAT" analyze "$TMP/base.pcap" --json --jobs 2 --quiet-stats \
  >"$TMP/analyze.json" 2>"$TMP/analyze.err" \
  || fail "analyze exited non-zero: $(cat "$TMP/analyze.err")"
diff -u "$GOLDEN_DIR/analyze_baseline.json" "$TMP/analyze.json" \
  || fail "analyze --json drifted from tests/golden/analyze_baseline.json" \
          "(regenerate deliberately if the schema changed)"

# Parallelism must not change a byte.
"$TDAT" analyze "$TMP/base.pcap" --json --jobs 1 --quiet-stats \
  >"$TMP/jobs1.json" 2>/dev/null || fail "analyze --jobs 1 exited non-zero"
cmp -s "$TMP/analyze.json" "$TMP/jobs1.json" \
  || fail "output differs between --jobs 2 and --jobs 1"

# --strict must not change a byte on clean input (DESIGN.md §10: clean
# captures are unaffected by the recovery policy).
"$TDAT" analyze "$TMP/base.pcap" --strict --json --jobs 2 --quiet-stats \
  >"$TMP/strict.json" 2>/dev/null || fail "analyze --strict exited non-zero"
cmp -s "$TMP/analyze.json" "$TMP/strict.json" \
  || fail "--strict changed output on a clean capture"

# --- exit-code contract (see README): 0 clean, 1 recoverable input errors,
# --- 2 usage error, 3 unreadable input --------------------------------------
"$TDAT" analyze "$TMP/does-not-exist.pcap" --quiet-stats \
  >/dev/null 2>"$TMP/err.txt"
[ $? -eq 3 ] || fail "unreadable input should exit 3"

"$TDAT" corrupt "$TMP/base.pcap" "$TMP/damaged.pcap" \
  --mode truncate-record --seed 7 >/dev/null \
  || fail "tdat corrupt exited non-zero"
"$TDAT" analyze "$TMP/damaged.pcap" --quiet-stats \
  >"$TMP/damaged.txt" 2>/dev/null
[ $? -eq 1 ] || fail "damaged capture should exit 1 (analyzed with errors)"
grep -q "ingest errors:" "$TMP/damaged.txt" \
  || fail "damaged-capture report should carry the ingest diagnostics block"

"$TDAT" analyze "$TMP/damaged.pcap" --strict --json --quiet-stats \
  >"$TMP/damaged.json" 2>/dev/null
[ $? -eq 1 ] || fail "strict mode on a damaged capture should still exit 1"
grep -q '"ingest"' "$TMP/damaged.json" \
  || fail "JSON output should embed the ingest diagnostics"

# --- malformed arguments: one-line error, exit 2 ----------------------------
"$TDAT" analyze "$TMP/base.pcap" --frobnicate 2>"$TMP/err.txt"
[ $? -eq 2 ] || fail "unknown flag should exit 2"
[ "$(wc -l <"$TMP/err.txt")" -eq 1 ] || fail "flag error should be one line"
grep -q "unknown flag '--frobnicate'" "$TMP/err.txt" \
  || fail "flag error should name the flag: $(cat "$TMP/err.txt")"

"$TDAT" analyze 2>"$TMP/err.txt"
[ $? -eq 2 ] || fail "analyze without inputs should exit 2"
grep -q "no input capture" "$TMP/err.txt" \
  || fail "missing-input error text: $(cat "$TMP/err.txt")"

"$TDAT" analyze "$TMP/base.pcap" --jobs banana 2>"$TMP/err.txt"
[ $? -eq 2 ] || fail "--jobs banana should exit 2"

# A negative count is not a number: it must not wrap to the largest value
# (one worker thread per connection).
for cmd in analyze watch; do
  "$TDAT" "$cmd" "$TMP/base.pcap" --jobs -1 >/dev/null 2>"$TMP/err.txt"
  [ $? -eq 2 ] || fail "$cmd --jobs -1 should exit 2"
  [ "$(wc -l <"$TMP/err.txt")" -eq 1 ] \
    || fail "$cmd --jobs -1 error should be one line: $(cat "$TMP/err.txt")"
done

"$TDAT" metrics --jobs banana "$TMP/base.pcap" >/dev/null 2>"$TMP/err.txt"
[ $? -eq 2 ] || fail "metrics --jobs banana should exit 2"
[ "$(wc -l <"$TMP/err.txt")" -eq 1 ] \
  || fail "metrics --jobs error should be one line: $(cat "$TMP/err.txt")"

"$TDAT" analyze "$TMP/base.pcap" --detectors frobnicate 2>"$TMP/err.txt"
[ $? -eq 2 ] || fail "unknown detector should exit 2"
grep -q "timer-gaps" "$TMP/err.txt" \
  || fail "detector error should list the valid names"

# --- passes listing ---------------------------------------------------------
"$TDAT" passes >"$TMP/passes.txt" || fail "tdat passes exited non-zero"
for p in bgp-sender-app tcp-advertised-window network-loss \
         timer-gaps consecutive-loss zero-window-bug peer-group \
         capture-voids; do
  grep -q "$p" "$TMP/passes.txt" || fail "tdat passes missing $p"
done

# --- detector selection reaches the sinks -----------------------------------
"$TDAT" analyze "$TMP/base.pcap" --detectors none --format csv --quiet-stats \
  >"$TMP/none.csv" 2>/dev/null || fail "analyze --detectors none failed"
head -1 "$TMP/none.csv" | grep -q "^connection,section,key,value$" \
  || fail "csv header missing"
grep -q ",detector,.*\.detected,0$" "$TMP/none.csv" \
  || fail "csv should keep the stable detector schema when disabled"
if grep -q "\.detected,1$" "$TMP/none.csv"; then
  fail "a detector fired despite --detectors none"
fi

echo "golden CLI test OK"
