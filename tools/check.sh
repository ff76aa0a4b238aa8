#!/bin/sh
# tools/check.sh — the one-shot static-analysis and invariant gate.
#
# From a clean checkout this configures and builds the tree twice
# (plus the scalar-only kernel library) and runs these layers of
# checking:
#
#   1. -Werror build against the hardened warning set
#      (SNAPEA_WERROR=ON; -Wshadow -Wnon-virtual-dtor -Wextra-semi
#      -Wcast-qual on top of -Wall -Wextra), with clang-tidy attached
#      to every compile when installed (SNAPEA_LINT=ON).
#   2. snapea_analyze over src/ tools/ bench/ tests/ — the repo's own
#      token-level rules (Status discipline, determinism,
#      process-exit policy, header hygiene, include cycles and
#      layering, SNAPEA_GUARDED_BY thread-safety); see
#      `snapea_analyze --list-rules`.  The allow() escape hatches in
#      the tree are then compared against tools/allow_baseline.txt:
#      any allow() site not in the checked-in baseline fails the
#      gate, so suppressions cannot creep in unreviewed.
#   3. The full test suite twice: the default build, then a
#      SNAPEA_CHECK_INVARIANTS=ON build (`checked` ctest label)
#      where the paper's math invariants are asserted at runtime.
#   4. The scalar-vs-SIMD equality gate (`simd` ctest label) twice:
#      once under the default CPUID dispatch and once with
#      SNAPEA_SIMD=scalar forced, proving the dispatch override and
#      the bitwise-equivalence contract both hold on this machine.
#   5. The scalar-only kernel configuration (-DSNAPEA_SIMD=scalar,
#      the only one a non-x86 host gets) builds snapea_kernels
#      warning-free, and a retired SNAPEA_SIMD value (sse2) is
#      rejected at configure time.
#   6. A serving smoke: snapea_serve boots with an injected sporadic
#      stall (slow:task in the worker processes, under a tight
#      watchdog), bench_serving drives closed-loop traffic at it for
#      a couple of seconds asserting every reply is well-formed, and
#      SIGTERM must produce a clean drain (exit 0, lock released).
#   7. A crash-isolation smoke: the daemon boots its supervised
#      worker-process pool with --worker-fault crash:worker:3 (every
#      worker dies on its 3rd request, cycling SIGSEGV/SIGABRT/
#      _exit), the smoke client pounds it, and the daemon itself must
#      stay up throughout and still drain cleanly on SIGTERM.
#
# Usage: tools/check.sh [--sanitize thread|address] [--labels REGEX]
#                       [--list-allows] [build-dir-prefix]
#
#   --list-allows  build snapea_analyze, print the tree's current
#                  allow() sites in baseline format, and exit.  To
#                  accept a reviewed suppression, redirect this into
#                  tools/allow_baseline.txt and commit both together.
#   --sanitize V   additionally instrument the *checked* build with
#                  SNAPEA_SANITIZE=V (composability gate: invariants
#                  and sanitizers must coexist).  Unknown values are
#                  rejected with exit 2, like snapea_cli flag errors.
#   --labels R     restrict the default-suite step to tests whose
#                  ctest label matches R (e.g. "faultinject|recovery"
#                  runs the failure-path and crash-recovery suites in
#                  one gate invocation).  The checked step keeps its
#                  own `checked` label.
#   build-dir-prefix  defaults to "build-gate"; the script uses
#                  <prefix>, <prefix>-scalar and <prefix>-checked.
#
# Each ctest invocation runs under a watchdog (timeout(1), when
# present) so a hung test cannot wedge the gate; SNAPEA_CHECK_TIMEOUT
# overrides the per-suite budget in seconds (default 1800).
#
# The extended gate (not run here; see DESIGN.md) additionally runs
#   cmake -DSNAPEA_SANITIZE=address + ctest -L asan
#   cmake -DSNAPEA_SANITIZE=thread  + ctest -L tsan
#
# Exit: 0 all layers clean, 1 a gate failed, 2 usage error.

set -u

usage() {
    echo "usage: $0 [--sanitize thread|address] [--labels REGEX]" \
         "[--list-allows] [build-dir-prefix]" >&2
    exit 2
}

SANITIZE=""
LABELS=""
LIST_ALLOWS=0
PREFIX="build-gate"

while [ $# -gt 0 ]; do
    case "$1" in
        --sanitize)
            [ $# -ge 2 ] || usage
            SANITIZE="$2"
            shift 2
            ;;
        --sanitize=*)
            SANITIZE="${1#--sanitize=}"
            shift
            ;;
        --labels)
            [ $# -ge 2 ] || usage
            LABELS="$2"
            shift 2
            ;;
        --labels=*)
            LABELS="${1#--labels=}"
            shift
            ;;
        --list-allows)
            LIST_ALLOWS=1
            shift
            ;;
        -h|--help)
            usage
            ;;
        -*)
            echo "$0: unknown flag '$1'" >&2
            usage
            ;;
        *)
            PREFIX="$1"
            shift
            ;;
    esac
done

case "$SANITIZE" in
    ""|thread|address) ;;
    *)
        echo "$0: unknown --sanitize value '$SANITIZE'" \
             "(expected 'thread' or 'address')" >&2
        usage
        ;;
esac

# Repo root = parent of this script's directory.
ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
JOBS=$(nproc 2>/dev/null || echo 4)

step() {
    echo ""
    echo "=== check.sh: $* ==="
}

fail() {
    echo "check.sh: FAILED: $*" >&2
    exit 1
}

# Every ctest run gets a hang watchdog when timeout(1) exists: a
# wedged test (deadlock, lost signal) fails the gate loudly instead
# of stalling CI forever.  timeout exits 124 on expiry, which the
# callers' `|| fail` path reports like any other suite failure.
CTEST_BUDGET="${SNAPEA_CHECK_TIMEOUT:-1800}"
run_ctest() {
    if command -v timeout >/dev/null 2>&1; then
        timeout "$CTEST_BUDGET" ctest "$@"
    else
        ctest "$@"
    fi
}

if [ "$LIST_ALLOWS" -eq 1 ]; then
    cmake -B "$ROOT/$PREFIX" -S "$ROOT" > /dev/null \
        || fail "configure ($PREFIX)"
    cmake --build "$ROOT/$PREFIX" --target snapea_analyze \
          -j "$JOBS" > /dev/null \
        || fail "building snapea_analyze"
    exec "$ROOT/$PREFIX/tools/snapea_analyze" --root "$ROOT" \
         --list-allows
fi

step "[1/9] configure + build, hardened warnings as errors"
cmake -B "$ROOT/$PREFIX" -S "$ROOT" \
      -DSNAPEA_WERROR=ON -DSNAPEA_LINT=ON \
    || fail "configure ($PREFIX)"
cmake --build "$ROOT/$PREFIX" -j "$JOBS" \
    || fail "-Werror build (warnings present or compile error)"

step "[2/9] snapea_analyze over src/ tools/ bench/ tests/ + allow() baseline"
"$ROOT/$PREFIX/tools/snapea_analyze" --root "$ROOT" \
    || fail "snapea_analyze found violations"
# Gate the escape hatches: every allow() site must already be in the
# reviewed baseline.  Sites disappearing is fine (just refresh the
# baseline when convenient); a new one fails until it is reviewed
# and committed via `tools/check.sh --list-allows`.
ALLOWS_NOW=$(mktemp) || fail "mktemp for the allow baseline"
"$ROOT/$PREFIX/tools/snapea_analyze" --root "$ROOT" --list-allows \
    2>/dev/null > "$ALLOWS_NOW" \
    || fail "snapea_analyze --list-allows"
NEW_ALLOWS=$(comm -13 "$ROOT/tools/allow_baseline.txt" "$ALLOWS_NOW")
if [ -n "$NEW_ALLOWS" ]; then
    echo "new allow() sites not in tools/allow_baseline.txt:" >&2
    echo "$NEW_ALLOWS" >&2
    rm -f "$ALLOWS_NOW"
    fail "unreviewed allow() suppressions (run tools/check.sh --list-allows and commit the refreshed baseline with your justification)"
fi
STALE_ALLOWS=$(comm -23 "$ROOT/tools/allow_baseline.txt" "$ALLOWS_NOW")
if [ -n "$STALE_ALLOWS" ]; then
    echo "note: baseline lists allow() sites no longer present:" >&2
    echo "$STALE_ALLOWS" >&2
fi
rm -f "$ALLOWS_NOW"

if [ -n "$LABELS" ]; then
    step "[3/9] test suite, labels matching '$LABELS'"
    run_ctest --test-dir "$ROOT/$PREFIX" -L "$LABELS" -j "$JOBS" \
              --output-on-failure \
        || fail "labeled test suite ($LABELS)"
else
    step "[3/9] default test suite"
    run_ctest --test-dir "$ROOT/$PREFIX" -j "$JOBS" --output-on-failure \
        || fail "default test suite"
fi

step "[4/9] scalar-vs-SIMD kernel equality (ctest -L simd, both dispatch modes)"
run_ctest --test-dir "$ROOT/$PREFIX" -L simd --output-on-failure \
    || fail "simd equality suite (dispatched kernels diverge from scalar)"
(
    SNAPEA_SIMD=scalar
    export SNAPEA_SIMD
    run_ctest --test-dir "$ROOT/$PREFIX" -L simd --output-on-failure
) || fail "simd equality suite under forced SNAPEA_SIMD=scalar"

step "[5/9] scalar-only kernels build; retired SNAPEA_SIMD values rejected"
# -DSNAPEA_SIMD=scalar is the configuration every non-x86 host
# builds, so it must keep compiling warning-free on its own.
cmake -B "$ROOT/$PREFIX-scalar" -S "$ROOT" \
      -DSNAPEA_WERROR=ON -DSNAPEA_SIMD=scalar > /dev/null \
    || fail "configure ($PREFIX-scalar)"
cmake --build "$ROOT/$PREFIX-scalar" --target snapea_kernels -j "$JOBS" \
    || fail "scalar-only snapea_kernels build"
SIMD_DIR=$(mktemp -d) || fail "mktemp for the SNAPEA_SIMD check"
if cmake -B "$SIMD_DIR" -S "$ROOT" -DSNAPEA_SIMD=sse2 \
        > "$SIMD_DIR/configure.log" 2>&1; then
    fail "configure accepted the retired SNAPEA_SIMD=sse2"
fi
grep -q "unsupported SNAPEA_SIMD value: sse2" "$SIMD_DIR/configure.log" \
    || fail "SNAPEA_SIMD=sse2 failed to configure without the expected error (see $SIMD_DIR/configure.log)"
rm -rf "$SIMD_DIR"

step "[6/9] serving smoke: daemon boot under injected stalls, loaded client, clean SIGTERM drain"
SERVE_DIR=$(mktemp -d) || fail "mktemp for the serving smoke"
# A sporadic injected stall plus a tight watchdog exercises the whole
# degradation path (stall -> watchdog cut -> retry) while the smoke
# client is pounding the daemon; the drain at the end must still be
# clean (exit 0) with every reply well-formed.  The stall is armed
# with --worker-fault so it lands in the worker processes, where the
# compute (and its watchdog/retry path) actually runs.
SNAPEA_WATCHDOG_MS=100 "$ROOT/$PREFIX/tools/snapea_serve" \
    --port 0 --port-file "$SERVE_DIR/port" \
    --lock "$SERVE_DIR/lock" --workers 1 --threads 1 \
    --worker-fault "slow:task:5" --retries 3 \
    > "$SERVE_DIR/daemon.log" 2>&1 &
SERVE_PID=$!
i=0
while [ ! -s "$SERVE_DIR/port" ] && [ "$i" -lt 600 ]; do
    kill -0 "$SERVE_PID" 2>/dev/null \
        || fail "snapea_serve died at boot (see $SERVE_DIR/daemon.log)"
    sleep 0.1
    i=$((i + 1))
done
[ -s "$SERVE_DIR/port" ] || fail "snapea_serve never published its port"
"$ROOT/$PREFIX/bench/bench_serving" \
    --connect "$(cat "$SERVE_DIR/port")" --smoke --duration 2 \
    || fail "serving smoke client (malformed or missing replies)"
kill -TERM "$SERVE_PID" || fail "signalling snapea_serve"
wait "$SERVE_PID"
SERVE_STATUS=$?
[ "$SERVE_STATUS" -eq 0 ] \
    || fail "snapea_serve exited $SERVE_STATUS on SIGTERM (expected a clean drain; see $SERVE_DIR/daemon.log)"
rm -rf "$SERVE_DIR"

step "[7/9] crash-isolation smoke: workers dying under load, daemon must hold and drain clean"
CRASH_DIR=$(mktemp -d) || fail "mktemp for the crash smoke"
# Every worker process dies on its 3rd request (the death manner
# cycles SIGSEGV/SIGABRT/_exit), so the supervisor restarts workers
# continuously while the client drives traffic.  The daemon must
# never die, the client must keep getting well-formed replies
# (re-dispatch makes the deaths invisible), and SIGTERM must still
# produce a clean drain.  storm-restarts is raised so the sustained
# churn is treated as weather, not a breaker-tripping storm.
"$ROOT/$PREFIX/tools/snapea_serve" \
    --port 0 --port-file "$CRASH_DIR/port" \
    --lock "$CRASH_DIR/lock" --workers 2 --threads 1 \
    --worker-fault "crash:worker:3" \
    --restart-backoff-ms 1 --storm-restarts 100000 \
    > "$CRASH_DIR/daemon.log" 2>&1 &
CRASH_PID=$!
i=0
while [ ! -s "$CRASH_DIR/port" ] && [ "$i" -lt 600 ]; do
    kill -0 "$CRASH_PID" 2>/dev/null \
        || fail "snapea_serve died at boot (see $CRASH_DIR/daemon.log)"
    sleep 0.1
    i=$((i + 1))
done
[ -s "$CRASH_DIR/port" ] || fail "snapea_serve never published its port"
"$ROOT/$PREFIX/bench/bench_serving" \
    --connect "$(cat "$CRASH_DIR/port")" --smoke --duration 2 \
    || fail "crash smoke client (replies lost while workers crashed)"
kill -0 "$CRASH_PID" 2>/dev/null \
    || fail "snapea_serve died during the crash smoke (isolation failed; see $CRASH_DIR/daemon.log)"
kill -TERM "$CRASH_PID" || fail "signalling snapea_serve"
wait "$CRASH_PID"
CRASH_STATUS=$?
[ "$CRASH_STATUS" -eq 0 ] \
    || fail "snapea_serve exited $CRASH_STATUS on SIGTERM after the crash smoke (see $CRASH_DIR/daemon.log)"
rm -rf "$CRASH_DIR"

step "[8/9] configure + build with SNAPEA_CHECK_INVARIANTS=ON${SANITIZE:+ + SNAPEA_SANITIZE=$SANITIZE}"
cmake -B "$ROOT/$PREFIX-checked" -S "$ROOT" \
      -DSNAPEA_WERROR=ON -DSNAPEA_CHECK_INVARIANTS=ON \
      -DSNAPEA_SANITIZE="$SANITIZE" \
    || fail "configure ($PREFIX-checked)"
cmake --build "$ROOT/$PREFIX-checked" -j "$JOBS" \
    || fail "checked build"

step "[9/9] full test suite under runtime invariant checks (ctest -L checked)"
run_ctest --test-dir "$ROOT/$PREFIX-checked" -L checked -j "$JOBS" \
          --output-on-failure \
    || fail "checked test suite (an invariant fired or a test broke)"

echo ""
echo "check.sh: all gates passed"
