#!/usr/bin/env bash
# Tier-1 verify with warnings promoted to errors, the benchmark smoke
# run, the correctness gates (determinism lint, clang-tidy, thread
# safety, sanitizer lanes), every --jobs 1 vs 8 byte-identity diff, the
# golden and --audit diffs, and the hot-path throughput floor.  Writes
# BENCH_micro_pipeline.json (read back by the next run's regression
# warning), BENCH_micro_structures.json and BENCH_correctness.json
# into the build tree.  Usage: scripts/ci.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
jobs="$(nproc 2>/dev/null || echo 2)"

echo "== configure (-Wall -Wextra -Werror) =="
cmake -B "$build" -S "$repo" -DGARIBALDI_WERROR=ON

echo "== build =="
cmake --build "$build" -j "$jobs"

echo "== ctest =="
ctest --test-dir "$build" --output-on-failure -j "$jobs"

# Rejected input fails in one place: before any stdout, with exit 1 and
# exactly one error line (never a header followed by a worker's fatal).
echo "== rejected input (exit 1, no stdout, one error line) =="
rejected=("fig11_end_to_end --mixes -1"
          "fig14_sensitivity --part z"
          "policy_explorer --threshold-mode bogus"
          "fig11_end_to_end --instr 0")
for cmd in "${rejected[@]}"; do
  read -r -a argv <<< "$cmd"
  status=0
  "$build/${argv[0]}" "${argv[@]:1}" > "$build/rejected.out" \
      2> "$build/rejected.err" || status=$?
  errors=$(grep -c '^\(error\|fatal\): ' "$build/rejected.err" || true)
  if [ "$status" -ne 1 ] || [ -s "$build/rejected.out" ] \
      || [ "$errors" -ne 1 ]; then
    echo "FAIL: '$cmd': exit $status, $(wc -c < "$build/rejected.out")" \
         "stdout bytes, $errors error lines"
    cat "$build/rejected.err"
    exit 1
  fi
done
echo "rejected inputs: each exits 1 with one error line and no stdout"

# Benchmark driver smoke run (~30 s): builds benchmark/garibaldi_bench
# against the root build/ and runs every workload at 1/50 length with
# the rep/trace/result schema checks, so an API change that breaks the
# driver fails here rather than in the benchmark pipeline.
echo "== benchmark smoke (benchmark/run.py --smoke) =="
if command -v python3 > /dev/null 2>&1; then
  python3 "$repo/benchmark/run.py" --smoke > "$build/benchmark_smoke.txt" \
      2>&1 || { tail -40 "$build/benchmark_smoke.txt"; exit 1; }
  bench_smoke_status="pass"
  echo "benchmark smoke: pass (log: $build/benchmark_smoke.txt)"
else
  bench_smoke_status="skip (no python3)"
  echo "benchmark smoke: SKIP (no python3 on PATH)"
fi

# ---- correctness gates (see README "Correctness tooling") ------------
# Determinism lint: hard gate; the fixture corpus that proves each rule
# fires runs as the lint_determinism_fixtures ctest above.
echo "== determinism lint (src/ bench/ examples/) =="
lint_status="pass"
if command -v python3 > /dev/null 2>&1; then
  python3 "$repo/scripts/lint_determinism.py" \
      "$repo/src" "$repo/bench" "$repo/examples"
  echo "determinism lint: clean"
else
  lint_status="skip (no python3)"
  echo "determinism lint: SKIP (no python3 on PATH)"
fi

# clang-tidy gate: zero warnings via WarningsAsErrors in .clang-tidy;
# SKIPs on toolchains without clang-tidy (this container ships GCC
# only) rather than failing.
echo "== clang-tidy gate =="
tidy_out=$("$repo/scripts/tidy.sh" "$build") || { echo "$tidy_out"; exit 1; }
echo "$tidy_out"
case "$tidy_out" in
  *SKIP*) tidy_status="skip (no clang-tidy)" ;;
  *)      tidy_status="pass" ;;
esac

# Clang thread-safety lane: -Wthread-safety -Wthread-safety-beta as
# errors over every TU, driven by the src/common/sharing.hh
# annotations; SKIPs honestly on GCC-only hosts.
echo "== clang thread-safety lane =="
ts_out=$("$repo/scripts/thread_safety.sh") || { echo "$ts_out"; exit 1; }
echo "$ts_out"
case "$ts_out" in
  *SKIP*) thread_safety_status="skip (no clang)" ;;
  *)      thread_safety_status="pass" ;;
esac

# (sweep_test, run by the ctest pass above, pins the unit-level
# determinism properties; here we also pin the end-to-end bytes.
# The diff uses a fixed --jobs 8 so the multi-threaded path is
# exercised even on a 1-CPU host, where $(nproc) would compare the
# serial path against itself.)
echo "== sweep determinism (bank_sensitivity bytes, --jobs 1 vs 8) =="
bank_args=(--warmup 10000 --instr 20000 --mixes 1)
"$build/bank_sensitivity" "${bank_args[@]}" --jobs 1 > "$build/bank_j1.txt"
"$build/bank_sensitivity" "${bank_args[@]}" --jobs 8 > "$build/bank_j8.txt"
if ! diff -q "$build/bank_j1.txt" "$build/bank_j8.txt" > /dev/null; then
  echo "FAIL: bank_sensitivity output differs between --jobs 1 and --jobs 8"
  diff "$build/bank_j1.txt" "$build/bank_j8.txt" | head -20
  exit 1
fi
echo "bank_sensitivity: --jobs 1 vs --jobs 8 byte-identical"

# Contention mode: the per-bank queuing model must keep the same
# byte-identity guarantee across --jobs.
echo "== bank contention (per-bank queuing model, --jobs 1 vs 8) =="
cont_args=(--warmup 10000 --instr 20000 --mixes 1 --contention --svc 4 --ports 1)
"$build/bank_sensitivity" "${cont_args[@]}" --jobs 1 > "$build/bank_cont_j1.txt"
"$build/bank_sensitivity" "${cont_args[@]}" --jobs 8 > "$build/bank_cont_j8.txt"
if ! diff -q "$build/bank_cont_j1.txt" "$build/bank_cont_j8.txt" > /dev/null; then
  echo "FAIL: bank_sensitivity --contention differs between --jobs 1 and 8"
  diff "$build/bank_cont_j1.txt" "$build/bank_cont_j8.txt" | head -20
  exit 1
fi
echo "bank_sensitivity --contention: --jobs 1 vs --jobs 8 byte-identical"

# DRAM contention: the channel-queueing model (arrival-keyed backfill,
# DRAM-fed LLC MSHRs) must hold the same
# byte-identity guarantee across --jobs.
echo "== dram contention (channel sweep, --jobs 1 vs 8) =="
dram_args=(--warmup 10000 --instr 20000 --mixes 1 --contention --svc 4
           --ports 1 --dram-sweep --dram-mshr)
"$build/bank_sensitivity" "${dram_args[@]}" --jobs 1 > "$build/dram_cont_j1.txt"
"$build/bank_sensitivity" "${dram_args[@]}" --jobs 8 > "$build/dram_cont_j8.txt"
if ! diff -q "$build/dram_cont_j1.txt" "$build/dram_cont_j8.txt" > /dev/null; then
  echo "FAIL: bank_sensitivity --dram-sweep differs between --jobs 1 and 8"
  diff "$build/dram_cont_j1.txt" "$build/dram_cont_j8.txt" | head -20
  exit 1
fi
echo "bank_sensitivity --dram-sweep: --jobs 1 vs --jobs 8 byte-identical"

# DRAM timing: the first-order DDR5 model (row-buffer split,
# read<->write turnaround, tREFI/tRFC refresh) must hold the same
# byte-identity guarantee across --jobs.
echo "== dram timing (row/turnaround/refresh model, --jobs 1 vs 8) =="
timing_args=(--warmup 10000 --instr 20000 --mixes 1 --dram-timing
             --row-bits 7 --turnaround 12 --refresh-interval 11700
             --refresh-penalty 885)
"$build/bank_sensitivity" "${timing_args[@]}" --jobs 1 > "$build/dram_timing_j1.txt"
"$build/bank_sensitivity" "${timing_args[@]}" --jobs 8 > "$build/dram_timing_j8.txt"
if ! diff -q "$build/dram_timing_j1.txt" "$build/dram_timing_j8.txt" > /dev/null; then
  echo "FAIL: bank_sensitivity --dram-timing differs between --jobs 1 and 8"
  diff "$build/dram_timing_j1.txt" "$build/dram_timing_j8.txt" | head -20
  exit 1
fi
echo "bank_sensitivity --dram-timing: --jobs 1 vs --jobs 8 byte-identical"

# Observability: with every obs knob off the tracer hook is a single
# null-pointer branch, so quickstart/fig04/fig11 must stay
# byte-identical to the committed goldens; with tracing on, artifacts
# must be byte-identical across --jobs.  fig11 is also diffed at
# --jobs 8, which pins the threaded parallelFor path (including the
# solo-IPC pre-warm its random mixes trigger) against the same bytes.
echo "== obs: knobs-off byte-identity vs goldens =="
"$build/quickstart" --warmup 20000 --instr 50000 \
    > "$build/golden_quickstart.txt"
"$build/fig04_access_patterns" --warmup 10000 --instr 20000 --jobs 1 \
    > "$build/golden_fig04.txt"
"$build/fig11_end_to_end" --warmup 10000 --instr 20000 --mixes 2 \
    --jobs 1 > "$build/golden_fig11.txt"
"$build/fig11_end_to_end" --warmup 10000 --instr 20000 --mixes 2 \
    --jobs 8 > "$build/golden_fig11_j8.txt"
for out in quickstart fig04 fig11 fig11_j8; do
  g="${out%_j8}"
  if ! diff -q "$repo/scripts/goldens/$g.txt" "$build/golden_$out.txt" \
      > /dev/null; then
    echo "FAIL: $out output drifted from scripts/goldens/$g.txt with obs off"
    diff "$repo/scripts/goldens/$g.txt" "$build/golden_$out.txt" | head -20
    exit 1
  fi
done
echo "quickstart/fig04/fig11 (--jobs 1 and 8): byte-identical to goldens with obs off"

# Audit mode is a pure checker: enabling --audit must not perturb a
# single output byte on a healthy run.
echo "== audit: --audit byte-identity vs golden =="
"$build/quickstart" --warmup 20000 --instr 50000 --audit \
    > "$build/golden_quickstart_audit.txt"
if ! diff -q "$repo/scripts/goldens/quickstart.txt" \
    "$build/golden_quickstart_audit.txt" > /dev/null; then
  echo "FAIL: quickstart --audit output differs from the golden"
  diff "$repo/scripts/goldens/quickstart.txt" \
      "$build/golden_quickstart_audit.txt" | head -20
  exit 1
fi
echo "quickstart --audit: byte-identical to golden (checks are silent)"

echo "== obs: traced quickstart (Perfetto JSON + telemetry JSONL) =="
obs_dir="$build/obs"
rm -rf "$obs_dir"
"$build/quickstart" --warmup 20000 --instr 50000 \
    --trace-sample 64 --trace-out "$obs_dir/quickstart.trace.json" \
    --telemetry-window 50000 \
    --telemetry-out "$obs_dir/quickstart.telemetry.jsonl" \
    > "$build/quickstart_traced.txt"
for f in quickstart.trace.json quickstart.trace.json.csv \
         quickstart.telemetry.jsonl; do
  if [ ! -s "$obs_dir/$f" ]; then
    echo "FAIL: traced quickstart did not write $f"
    exit 1
  fi
done
# The trace must stay loadable by Perfetto / chrome://tracing: a JSON
# object opening with a traceEvents array.
if ! head -c 16 "$obs_dir/quickstart.trace.json" \
    | grep -q '{"traceEvents"'; then
  echo "FAIL: trace JSON does not open with a traceEvents object"
  exit 1
fi
events=$(grep -o '"ph":' "$obs_dir/quickstart.trace.json" | wc -l)
windows=$(wc -l < "$obs_dir/quickstart.telemetry.jsonl")
echo "traced quickstart: $events trace events, $windows telemetry windows"

echo "== obs: sweep artifacts byte-identical (--obs-dir, --jobs 1 vs 8) =="
obs_sweep_args=(--warmup 10000 --instr 20000 --mixes 1
                --trace-sample 16 --telemetry-window 50000)
rm -rf "$build/obs_j1" "$build/obs_j8"
"$build/bank_sensitivity" "${obs_sweep_args[@]}" --jobs 1 \
    --obs-dir "$build/obs_j1" > "$build/obs_bank_j1.txt"
"$build/bank_sensitivity" "${obs_sweep_args[@]}" --jobs 8 \
    --obs-dir "$build/obs_j8" > "$build/obs_bank_j8.txt"
if ! diff -q "$build/obs_bank_j1.txt" "$build/obs_bank_j8.txt" \
      > /dev/null \
   || ! diff -rq "$build/obs_j1" "$build/obs_j8" > /dev/null; then
  echo "FAIL: traced sweep differs between --jobs 1 and --jobs 8"
  diff "$build/obs_bank_j1.txt" "$build/obs_bank_j8.txt" | head -10
  diff -rq "$build/obs_j1" "$build/obs_j8" | head -10
  exit 1
fi
n_artifacts=$(ls "$build/obs_j1" | wc -l)
echo "traced sweep: stdout + $n_artifacts artifacts byte-identical across --jobs"

echo "== hot-path throughput (accesses/sec; track across PRs) =="
# Keep the previous run's archive (if any) around for the regression
# warning below before this run overwrites it.
prev_rate16=""
if [ -f "$build/BENCH_micro_pipeline.json" ]; then
  prev_rate16=$(awk -F'[:,]' '/"accesses_per_sec_16core"/ {gsub(/ /,"",$2); print $2}' \
                "$build/BENCH_micro_pipeline.json")
fi
"$build/micro_pipeline" --quick | tee "$build/micro_pipeline.txt"
rate=$(awk '$1 == 8 && $2 == 1 {print $3}' "$build/micro_pipeline.txt")
rate16=$(awk '$1 == 16 && $2 == 1 {print $3}' "$build/micro_pipeline.txt")
cat > "$build/BENCH_micro_pipeline.json" <<EOF
{
  "bench": "micro_pipeline",
  "config": "--quick; 8-core/1-bank row + 16-core/1-bank headline row",
  "accesses_per_sec": ${rate:-0},
  "accesses_per_sec_16core": ${rate16:-0}
}
EOF
cat "$build/BENCH_micro_pipeline.json"

# Throughput-regression guard: the hard floor is the seed revision's
# measured rate (scripts/perf_floors.json, committed); dropping below
# it fails CI.  Falling short of the previous archived run only warns —
# run-to-run noise on shared hosts is real, a trend is not a cliff.
floor=$(awk -F'[:,]' '/"micro_pipeline_16core_floor"/ {gsub(/ /,"",$2); print $2}' \
        "$repo/scripts/perf_floors.json")
if [ -z "${rate16:-}" ]; then
  echo "FAIL: micro_pipeline printed no 16-core/1-bank headline row"
  exit 1
fi
if awk "BEGIN{exit !(${rate16} < ${floor:-660000})}"; then
  echo "FAIL: micro_pipeline 16-core rate ${rate16} below seed floor ${floor:-660000}"
  exit 1
fi
echo "micro_pipeline 16-core rate ${rate16} >= seed floor ${floor:-660000}"
if [ -n "$prev_rate16" ] && awk "BEGIN{exit !(${rate16} < ${prev_rate16})}"; then
  echo "WARN: micro_pipeline 16-core rate ${rate16} below previous archived ${prev_rate16}"
fi

# Per-structure microbenchmarks (google-benchmark; optional dep): the
# per-policy churn rows give every PolicyKind its own baseline.
if [ -x "$build/micro_structures" ]; then
  echo "== per-structure microbenchmarks =="
  "$build/micro_structures" --benchmark_min_time=0.05 \
      --benchmark_format=json > "$build/BENCH_micro_structures.json"
  awk -F'"' '/"name"/ {print $4}' "$build/BENCH_micro_structures.json" \
      | sed 's/^/  archived: /'
else
  echo "micro_structures not built (google-benchmark missing); skipping"
fi

# ---- sanitizer lanes -------------------------------------------------
# Each lane is its own build tree (sanitizer runtimes must not mix):
# full ctest plus a short traced-free sweep at --jobs 8 with --audit on,
# so the sweep's worker threads, the solo-IPC cache, and every audit
# check run instrumented.  CI_SANITIZE=0 skips the lanes (e.g. quick
# local runs); the stamp below records the skip honestly.
run_sanitizer_lane() {
  lane_name="$1"; lane_flags="$2"; lane_build="$build-$1"
  echo "== sanitizer lane: $lane_name (-fsanitize=${lane_flags//;/,}) =="
  cmake -B "$lane_build" -S "$repo" -DSIM_SANITIZE="$lane_flags" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$lane_build" -j "$jobs"
  ctest --test-dir "$lane_build" --output-on-failure -j "$jobs"
  "$lane_build/quickstart" --warmup 5000 --instr 10000 --audit > /dev/null
  "$lane_build/bank_sensitivity" --warmup 2000 --instr 5000 --mixes 1 \
      --jobs 8 --audit > /dev/null
  echo "sanitizer lane $lane_name: clean"
}
if [ "${CI_SANITIZE:-1}" != "0" ]; then
  run_sanitizer_lane asan "address;undefined"
  asan_status="pass"
  run_sanitizer_lane tsan "thread"
  tsan_status="pass"
else
  asan_status="skip (CI_SANITIZE=0)"
  tsan_status="skip (CI_SANITIZE=0)"
  echo "== sanitizer lanes: SKIP (CI_SANITIZE=0) =="
fi

# One artifact recording what the correctness gates actually ran, so a
# lane silently skipping can never masquerade as a pass.
cat > "$build/BENCH_correctness.json" <<EOF
{
  "lint_determinism": "$lint_status",
  "clang_tidy": "$tidy_status",
  "thread_safety": "$thread_safety_status",
  "asan_ubsan_lane": "$asan_status",
  "tsan_lane": "$tsan_status",
  "benchmark_smoke": "$bench_smoke_status",
  "audit_golden_identity": "pass"
}
EOF
cat "$build/BENCH_correctness.json"

echo "CI OK"
