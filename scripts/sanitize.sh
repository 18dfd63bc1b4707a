#!/usr/bin/env bash
# Concurrency-sanitizer harness (best-effort).
#
# Runs the tier-1 concurrency surface under ThreadSanitizer and the
# pgp-graph unit tests under Miri, when the required toolchain pieces are
# installed. Every stage degrades to an explicit SKIP instead of failing,
# so this script is safe to run in minimal/offline images and in CI with
# `continue-on-error` — a non-zero exit means a sanitizer actually fired,
# never that a toolchain was missing.
#
# Requirements per stage (all optional):
#   tsan:  rustup nightly toolchain + rust-src component (TSan must rebuild
#          std instrumented via -Zbuild-std, otherwise it reports false
#          positives from uninstrumented std internals).
#   miri:  rustup nightly toolchain + miri component.
#
# Usage: scripts/sanitize.sh [tsan|miri|all]   (default: all)

set -u
cd "$(dirname "$0")/.."

stage="${1:-all}"
failures=0

have_nightly() { rustup toolchain list 2>/dev/null | grep -q '^nightly'; }
have_component() { rustup component list --toolchain nightly 2>/dev/null | grep -q "^$1.*(installed)"; }

run_tsan() {
    echo "== ThreadSanitizer: pgp-dmp concurrency + collectives tests =="
    if ! have_nightly; then
        echo "SKIP: no nightly toolchain installed (rustup toolchain install nightly)"
        return 0
    fi
    if ! have_component "rust-src"; then
        echo "SKIP: nightly rust-src component missing (rustup component add --toolchain nightly rust-src)"
        return 0
    fi
    local host
    host="$(rustc -vV | sed -n 's/^host: //p')"
    if RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host" \
        -p pgp-dmp --tests -- --test-threads=1; then
        echo "tsan: clean"
    else
        echo "tsan: FAILURES (see above)"
        failures=$((failures + 1))
    fi
    # The chaos suite exercises the fault-injection paths (limbo release,
    # poison broadcast, watchdog timeout) — exactly the lock/condvar
    # choreography TSan is good at: a racy release of a delayed message or
    # an unsynchronized poison read shows up here first.
    echo "== ThreadSanitizer: pgp-chaos fault-injection suite =="
    if RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host" \
        -p pgp-chaos --tests -- --test-threads=1; then
        echo "tsan (chaos): clean"
    else
        echo "tsan (chaos): FAILURES (see above)"
        failures=$((failures + 1))
    fi
    # The observability layer is cross-thread choreography: per-PE
    # recorder cells read by the report builder after the join — a
    # missing lock shows up here first.
    echo "== ThreadSanitizer: pgp-obs recorder suite =="
    if RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host" \
        -p pgp-obs --tests -- --test-threads=1; then
        echo "tsan (obs): clean"
    else
        echo "tsan (obs): FAILURES (see above)"
        failures=$((failures + 1))
    fi
}

run_miri() {
    echo "== Miri: pgp-graph unit tests =="
    if ! have_nightly; then
        echo "SKIP: no nightly toolchain installed (rustup toolchain install nightly)"
        return 0
    fi
    if ! cargo +nightly miri --version >/dev/null 2>&1; then
        echo "SKIP: miri component missing (rustup component add --toolchain nightly miri)"
        return 0
    fi
    # proptest-heavy suites are too slow under Miri; the unit tests of the
    # core data structures are the interesting UB surface.
    if MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p pgp-graph --lib; then
        echo "miri: clean"
    else
        echo "miri: FAILURES (see above)"
        failures=$((failures + 1))
    fi
}

case "$stage" in
    tsan) run_tsan ;;
    miri) run_miri ;;
    all) run_tsan; run_miri ;;
    *) echo "usage: $0 [tsan|miri|all]" >&2; exit 2 ;;
esac

if [ "$failures" -ne 0 ]; then
    echo "sanitize: $failures stage(s) reported findings"
    exit 1
fi
echo "sanitize: done (missing toolchains are skipped, not failures)"
