#!/usr/bin/env bash
# End-to-end smoke test for the addm_serve daemon and addm_client.
#
#   serve_smoke.sh ADDM_SERVE ADDM_CLIENT ADDM_EXPLORE ADDM_CACHE WORK_DIR
#
# Starts a real daemon on a temp unix socket with a shared cache dir, then
# checks the whole contract from outside the process:
#   - served reports are byte-identical to offline addm_explore for two
#     option sets and both output formats (cold AND warm/memo-served),
#   - path traces, inline traces (--send-trace), and the JSON-lines wire
#     mode all match their offline equivalents,
#   - admin stats/flush/compact work and leave a directory that
#     addm_cache verify-checksums calls clean,
#   - SIGTERM drains and exits 0,
#   - the TCP transport (--listen/--port-file) serves the same bytes,
#   - bad values of the shared input, exploration and output flags exit 2
#     in addm_explore and addm_client alike, with the same message,
#   - an addm_explore shard opens only the trace files it owns.
set -u

# The script cds into WORK, so resolve the tool paths first.
SERVE=$(readlink -f "$1"); CLIENT=$(readlink -f "$2")
EXPLORE=$(readlink -f "$3"); CACHE=$(readlink -f "$4"); WORK=$5

fail() { echo "serve_smoke: FAIL: $*" >&2; exit 1; }

rm -rf "$WORK"
mkdir -p "$WORK" || fail "cannot create $WORK"
cd "$WORK" || fail "cannot enter $WORK"

# Unix socket paths must stay under sun_path (~108 bytes); the build tree
# can be deep, so put the socket in a private temp dir instead.
SOCK_DIR=$(mktemp -d) || fail "mktemp -d"
SOCK="$SOCK_DIR/smoke.sock"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null
  [ -n "$DAEMON_PID" ] && wait "$DAEMON_PID" 2>/dev/null
  rm -rf "$SOCK_DIR"
}
trap cleanup EXIT

wait_for_ping() {
  # The daemon binds before it prints anything; poll until ping succeeds.
  for _ in $(seq 1 100); do
    if "$CLIENT" "$@" ping >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

# ---- offline references ---------------------------------------------------
"$EXPLORE" --suite 2 --quiet --out ref_default.csv || fail "offline default"
"$EXPLORE" --suite 2 --quiet --no-fsm --minimizer auto --out ref_nofsm.csv \
  || fail "offline no-fsm"
"$EXPLORE" --suite 2 --quiet --format json --out ref_default.json \
  || fail "offline json"

# ---- usage errors exit 2 in both tools, before any daemon is contacted ----
# Each case runs through both tools' argv loops and must print the same
# `<argv0>: <message>` line.  insert_buffers needs a fanout of at least 2,
# and 4294967298 must not wrap to 2 on its way into an int.
usage_error() {  # MESSAGE ARGS...
  local want=$1 got rc
  shift
  got=$("$EXPLORE" --suite 1 --quiet "$@" 2>&1 >/dev/null)
  rc=$?
  [ "$rc" -eq 2 ] || fail "addm_explore $* exit $rc (want 2)"
  [ "$got" = "$EXPLORE: $want" ] || fail "addm_explore $*: '$got'"
  got=$("$CLIENT" --socket "$SOCK" --suite 1 --quiet "$@" 2>&1 >/dev/null)
  rc=$?
  [ "$rc" -eq 2 ] || fail "addm_client $* exit $rc (want 2)"
  [ "$got" = "$CLIENT: $want" ] || fail "addm_client $*: '$got'"
}
usage_error "--max-fanout expects 2..2147483647" --max-fanout 1
usage_error "--max-fanout expects 2..2147483647" --max-fanout 4294967298
usage_error "--espresso-threshold expects 1..24" --no-fsm --espresso-threshold 25
usage_error "--minimizer must be isop, exact, espresso or auto" --minimizer magic
usage_error "--max-fanout requires a value" --max-fanout ""
usage_error "--max-fanout requires a value" --verify-front --max-fanout
usage_error "--suite expects a positive count" --suite 0
usage_error "--base expects WxH (e.g. 8x8)" --base 8
usage_error "--format must be csv or json" --format xml
usage_error "--trace requires a value" --trace

# ---- a shard opens only the trace files it owns ---------------------------
# The list is 9 suite traces, then missing.trace at position 9: shard 0/2
# owns positions 0-4 and never opens it, shard 1/2 owns 5-9 and fails on it.
"$EXPLORE" --suite 1 --trace missing.trace --shard 0/2 --quiet \
  --out shard0.csv || fail "shard 0/2 opened a trace outside its slice"
got=$("$EXPLORE" --suite 1 --trace missing.trace --shard 1/2 --quiet 2>&1 >/dev/null)
rc=$?
[ "$rc" -eq 1 ] || fail "shard 1/2 with a missing trace: exit $rc (want 1)"
[ "$got" = "$EXPLORE: cannot open trace file: missing.trace" ] \
  || fail "shard 1/2 with a missing trace: '$got'"

# ---- daemon on a unix socket with a shared cache --------------------------
"$SERVE" --socket "$SOCK" --cache-dir cache --quiet &
DAEMON_PID=$!
wait_for_ping --socket "$SOCK" || fail "daemon never answered ping"

# Cold request, then the same request again (memo-served): both must be
# byte-identical to offline addm_explore.
"$CLIENT" --socket "$SOCK" --suite 2 --quiet --out got_default.csv \
  || fail "client default request"
cmp ref_default.csv got_default.csv || fail "cold served CSV != offline CSV"
"$CLIENT" --socket "$SOCK" --suite 2 --quiet --out got_warm.csv \
  || fail "client warm request"
cmp ref_default.csv got_warm.csv || fail "warm served CSV != offline CSV"

# A different option set and the JSON report format.
"$CLIENT" --socket "$SOCK" --suite 2 --quiet --no-fsm --minimizer auto \
  --out got_nofsm.csv || fail "client no-fsm request"
cmp ref_nofsm.csv got_nofsm.csv || fail "served no-fsm CSV != offline CSV"
"$CLIENT" --socket "$SOCK" --suite 2 --quiet --format json \
  --out got_default.json || fail "client json-format request"
cmp ref_default.json got_default.json || fail "served JSON != offline JSON"

# ---- path and inline traces ----------------------------------------------
"$(dirname "$SERVE")/addm_trace_gen" --out-dir traces --suite 1 >/dev/null 2>&1 \
  || fail "trace_gen"
ONE_TRACE=$(ls traces/*.trace | head -1)
"$EXPLORE" --trace "$ONE_TRACE" --quiet --out ref_trace.csv \
  || fail "offline trace"
"$CLIENT" --socket "$SOCK" --trace "$ONE_TRACE" --quiet --out got_trace.csv \
  || fail "client path trace"
cmp ref_trace.csv got_trace.csv || fail "served path-trace CSV != offline"
"$CLIENT" --socket "$SOCK" --send-trace "$ONE_TRACE" --quiet \
  --out got_inline.csv || fail "client inline trace"
cmp ref_trace.csv got_inline.csv || fail "served inline-trace CSV != offline"

# ---- JSON-lines wire mode -------------------------------------------------
"$CLIENT" --socket "$SOCK" --json --suite 2 --quiet --out got_jsonwire.csv \
  || fail "client json wire mode"
cmp ref_default.csv got_jsonwire.csv || fail "JSON wire mode CSV != offline"
"$CLIENT" --socket "$SOCK" --json ping >/dev/null || fail "json ping"

# ---- admin: flush, stats, compact; then offline verification --------------
"$CLIENT" --socket "$SOCK" admin flush >/dev/null || fail "admin flush"
"$CLIENT" --socket "$SOCK" admin stats > stats.json || fail "admin stats"
grep -q '"entries"' stats.json || fail "admin stats is not the stats JSON"
"$CLIENT" --socket "$SOCK" admin compact >/dev/null || fail "admin compact"
"$CLIENT" --socket "$SOCK" admin prune --max-entries 1000 >/dev/null \
  || fail "admin prune"

# A bad admin command must fail the client (exit 1) but not the daemon.
if "$CLIENT" --socket "$SOCK" admin no-such-command >/dev/null 2>&1; then
  fail "unknown admin command unexpectedly succeeded"
fi
wait_for_ping --socket "$SOCK" || fail "daemon died after bad admin command"

# ---- clean SIGTERM drain --------------------------------------------------
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
RC=$?
[ "$RC" -eq 0 ] || fail "daemon exit code $RC after SIGTERM (want 0)"
DAEMON_PID=""
[ -S "$SOCK" ] && fail "daemon left its socket file behind"

# The flushed cache must be clean, and warm-start an offline run.
"$CACHE" verify-checksums cache --quiet || fail "cache verify-checksums"
"$EXPLORE" --suite 2 --cache-dir cache --quiet --out warm_offline.csv \
  || fail "offline warm run"
cmp ref_default.csv warm_offline.csv || fail "offline warm CSV != reference"

# ---- TCP transport --------------------------------------------------------
"$SERVE" --listen 0 --port-file port.txt --quiet --max-requests 3 &
DAEMON_PID=$!
for _ in $(seq 1 100); do [ -s port.txt ] && break; sleep 0.1; done
[ -s port.txt ] || fail "daemon never wrote its port file"
PORT=$(cat port.txt)
wait_for_ping --connect "$PORT" || fail "tcp daemon never answered ping"
"$CLIENT" --connect "$PORT" --suite 2 --quiet --out got_tcp.csv \
  || fail "client tcp request"
cmp ref_default.csv got_tcp.csv || fail "TCP served CSV != offline CSV"
# Third request hits --max-requests; the daemon then drains and exits 0.
"$CLIENT" --connect "$PORT" ping >/dev/null || fail "tcp ping"
wait "$DAEMON_PID"
RC=$?
[ "$RC" -eq 0 ] || fail "tcp daemon exit code $RC after --max-requests"
DAEMON_PID=""

echo "serve_smoke: PASS"
