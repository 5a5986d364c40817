#!/bin/bash
# Clang thread-safety lane: -Wthread-safety -Wthread-safety-beta as
# errors over every translation unit in src/.  The annotations in
# src/common/sharing.hh (SIM_GUARDED_BY / SIM_REQUIRES / SimMutex)
# lower to real capability attributes under clang, so a
# lock-discipline slip in the genuinely
# concurrent subsystems (ThreadPool, ExperimentContext's solo cache)
# is a build error here, not a TSan roll of the dice.
#
# The container this repo builds in ships only the GCC toolchain; when
# no clang++ binary exists the lane SKIPs (exit 0) rather than failing,
# the same discipline as scripts/tidy.sh — any environment with clang
# gets the full gate, and ci.sh records the honest SKIP stamp.
#
# Usage: scripts/thread_safety.sh
set -u

ROOT=$(cd "$(dirname "$0")/.." && pwd)

CXX=""
for cand in clang++ clang++-19 clang++-18 clang++-17 clang++-16 \
            clang++-15 clang++-14; do
    if command -v "$cand" >/dev/null 2>&1; then
        CXX="$cand"
        break
    fi
done
if [ -z "$CXX" ]; then
    echo "thread_safety: SKIP (no clang++ on PATH; the SIM_GUARDED_BY" \
         "annotations still gate any environment that has one)"
    exit 0
fi

cd "$ROOT" || exit 1
FILES=$(find src -name '*.cc' | sort)
[ -n "$FILES" ] || { echo "thread_safety: no sources found" >&2; exit 1; }

echo "thread_safety: $CXX over $(echo "$FILES" | wc -l) translation units"
fail=0
for f in $FILES; do
    # Syntax-only: we want the analysis warnings, not object files.
    # -Wno-everything first so ONLY the thread-safety family gates this
    # lane (the ordinary warning wall is the main build's business).
    if ! "$CXX" -fsyntax-only -std=c++17 -Isrc \
            -Wno-everything -Wthread-safety -Wthread-safety-beta \
            -Werror "$f"; then
        echo "thread_safety: $f failed" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "thread_safety: FAILED (fix the lock discipline or annotate" \
         "the exception with the src/common/sharing.hh macros)" >&2
    exit 1
fi
echo "thread_safety: clean"
exit 0
