#!/usr/bin/env bash
# Full correctness gate, ten named stages:
#
#   lint      repo lint (token analyzer) + analyzer self-test
#   release   Release build + tests (warnings are errors)
#   bench-replay  bench_fault/governor/scenarios reproduce their BENCH files;
#             bench_micro reproduces BENCH_micro.json's non-timing fields
#   perfbench benchmark smoke test (perfbench/test_smoke.py, ~30 s)
#   asan      ASan+UBSan Debug build + tests
#   tsan      TSan build + tests (thread pool race check)
#   faults    tier-1 tests under a canned ANOLE_FAULTS schedule (ASan)
#   simd      tier-1 tests under forced SIMD dispatch levels (Release)
#   soak      10k-frame governor soak under overload faults (ASan)
#   tidy      static-analysis gate: analyzer + ratchet + clang-tidy
#
# Non-zero exit on the first failure; a per-stage timing summary prints at
# the end either way. Run from anywhere.
#
# Subset runs: ANOLE_CHECK_STAGES=lint,tidy scripts/check.sh
# runs only the named stages (comma-separated, order fixed as above).
set -euo pipefail

repo_root="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

jobs="$(nproc 2>/dev/null || echo 4)"

stage_names=()
stage_secs=()
stage_results=()

report() {
  echo
  echo "check.sh stage timings:"
  local i
  for i in "${!stage_names[@]}"; do
    printf '  %-12s %6ss  %s\n' \
      "${stage_names[$i]}" "${stage_secs[$i]}" "${stage_results[$i]}"
  done
}
trap report EXIT

stage_enabled() {
  [[ -z "${ANOLE_CHECK_STAGES:-}" ]] && return 0
  [[ ",${ANOLE_CHECK_STAGES}," == *",$1,"* ]]
}

run_stage() {
  local name="$1" desc="$2" fn="$3"
  if ! stage_enabled "$name"; then
    return 0
  fi
  echo "==> [$name] $desc"
  local start=$SECONDS
  stage_names+=("$name")
  if "$fn"; then
    stage_secs+=("$((SECONDS - start))")
    stage_results+=("ok")
  else
    stage_secs+=("$((SECONDS - start))")
    stage_results+=("FAIL")
    echo "check.sh: stage '$name' failed" >&2
    exit 1
  fi
}

stage_lint() {
  python3 scripts/anole_lint.py . &&
  python3 scripts/test_anole_analyze.py
}

stage_release() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DANOLE_WERROR=ON &&
  cmake --build build -j "$jobs" &&
  ctest --test-dir build --output-on-failure -j "$jobs"
}

stage_bench_replay() {
  # The deterministic benches, rerun from the Release tree in a temp
  # directory, must exit 0 and reproduce their committed BENCH_*.json in
  # every field but `provenance`, key order included. A file committed at
  # another active SIMD level is skipped: fp32 results may differ there
  # by contract (DESIGN.md §13).
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DANOLE_WERROR=ON \
    >/dev/null &&
  cmake --build build -j "$jobs" \
    --target bench_fault bench_governor bench_scenarios bench_micro ||
    return 1
  local tmp name rc=0
  tmp="$(mktemp -d)"
  for name in fault governor scenarios; do
    if ! (cd "$tmp" && "$repo_root/build/bench/bench_$name" \
            >"bench_$name.log" 2>&1); then
      cat "$tmp/bench_$name.log" >&2
      echo "    bench_$name exited non-zero" >&2
      rc=1
      continue
    fi
    python3 - "BENCH_$name.json" "$tmp/BENCH_$name.json" <<'PY' || rc=1
import json, sys
committed, fresh = (json.load(open(path)) for path in sys.argv[1:3])
want = committed.pop("provenance", {}).get("simd_active")
have = fresh.pop("provenance", {}).get("simd_active")
if want != have:
    print(f"    skip {sys.argv[1]}: committed at SIMD {want}, host runs {have}")
    sys.exit(0)
if json.dumps(committed) != json.dumps(fresh):
    keys = list(dict.fromkeys([*committed, *fresh]))
    diff = [k for k in keys if committed.get(k) != fresh.get(k)]
    print(f"    {sys.argv[1]} differs from a fresh run at {diff or 'key order'}",
          file=sys.stderr)
    sys.exit(1)
print(f"    {sys.argv[1]} replays")
PY
  done
  # bench_micro times host kernels, so its timings are ungated here, and
  # so is its exit code, which also carries its speedup floors. Its
  # non-timing fields (shapes, step counts, determinism verdicts) must
  # equal the committed file's.
  local micro_rc=0
  (cd "$tmp" && "$repo_root/build/bench/bench_micro" >bench_micro.log 2>&1) ||
    micro_rc=$?
  if [[ ! -f "$tmp/BENCH_micro.json" ]]; then
    cat "$tmp/bench_micro.log" >&2
    echo "    bench_micro wrote no BENCH_micro.json" >&2
    rc=1
  else
    python3 - BENCH_micro.json "$tmp/BENCH_micro.json" "$micro_rc" <<'PY' || rc=1
import json, sys
committed, fresh = (json.load(open(path)) for path in sys.argv[1:3])
want = committed.pop("provenance", {}).get("simd_active")
have = fresh.pop("provenance", {}).get("simd_active")
if want != have:
    print(f"    skip {sys.argv[1]}: committed at SIMD {want}, host runs {have}")
    sys.exit(0)
KEYS = {"widths", "frames", "steps", "cells_per_batch", "identical_results",
        "identical_across_levels"}
def fields(node, path=""):
    out = {}
    for key, value in node.items():
        if isinstance(value, dict):
            out.update(fields(value, f"{path}{key}."))
        elif key in KEYS:
            out[path + key] = value
    return out
want, have = fields(committed), fields(fresh)
diff = sorted(k for k in want.keys() | have.keys() if want.get(k) != have.get(k))
if diff:
    print(f"    {sys.argv[1]} differs from a fresh run at {diff}", file=sys.stderr)
    sys.exit(1)
note = "" if sys.argv[3] == "0" else f"; bench_micro exited {sys.argv[3]}"
print(f"    {sys.argv[1]} replays its {len(want)} non-timing fields "
      f"(timings ungated{note})")
PY
  fi
  rm -rf "$tmp"
  return "$rc"
}

stage_perfbench() {
  # Every workload of BENCHMARK.json, untraced and traced, at smoke scale:
  # metric names and units match the spec and every correctness check of
  # the benchmark passes. Builds its own tree in .bench_build/.
  python3 perfbench/test_smoke.py
}

stage_asan() {
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    "-DANOLE_SANITIZE=address;undefined" -DANOLE_WERROR=ON &&
  cmake --build build-asan -j "$jobs" &&
  ctest --test-dir build-asan --output-on-failure -j "$jobs"
}

stage_tsan() {
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DANOLE_SANITIZE=thread -DANOLE_WERROR=ON &&
  cmake --build build-tsan -j "$jobs" &&
  # ANOLE_THREADS=4 so the pool actually runs multi-threaded even on
  # single-core CI hosts: TSan has races to look at either way.
  ANOLE_THREADS=4 ctest --test-dir build-tsan --output-on-failure -j "$jobs"
}

stage_faults() {
  # Every AnoleEngine built without an explicit injector picks this schedule
  # up from the environment (each engine re-seeds its own streams, so test
  # order cannot perturb outcomes). The suite must stay green while the
  # degradation ladder absorbs ~1% failures at every site; ASan watches the
  # recovery paths for memory errors.
  ANOLE_FAULTS="seed=1337,model_load=0.01,artifact_section=0.01,decision_output=0.01,frame_payload=0.005,load_latency_spike=0.02x25,memory_pressure=0.01x2" \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"
}

stage_simd() {
  # Pins the SIMD dispatch level below the host's detected one so the
  # scalar reference kernels — normally shadowed by AVX2 — run the full
  # tier-1 suite. avx2 is forced explicitly when the host supports it,
  # covering the clamp path and the FMA kernels regardless of future
  # defaults.
  ANOLE_SIMD=scalar ctest --test-dir build --output-on-failure -j "$jobs" &&
  if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
    ANOLE_SIMD=avx2 ctest --test-dir build --output-on-failure -j "$jobs"
  fi
}

stage_soak() {
  # A long closed-loop session through the runtime governor with I/O latency
  # spikes and memory-pressure budget shrinks. The test asserts every frame
  # is served by a valid model, frame accounting balances, and the dropped-
  # frame rate stays bounded; ASan+UBSan watch the shed/suppress/evict paths.
  ANOLE_SOAK_FRAMES=10000 \
    ctest --test-dir build-asan --output-on-failure -R 'GovernorSoak'
}

stage_tidy() {
  # The full static gate: analyzer (including the contract-coverage ratchet
  # against scripts/lint_baseline.json -- regressions fail here) plus the
  # clang-tidy sweep. clang-tidy exits 77 where the binary is unavailable;
  # that is an explicit skip, not a pass.
  python3 scripts/anole_lint.py . || return 1
  local rc=0
  python3 scripts/run_clang_tidy.py --build-dir build || rc=$?
  if [[ $rc -eq 77 ]]; then
    echo "    (clang-tidy unavailable: stage counted as skip)"
    return 0
  fi
  return "$rc"
}

run_stage lint    "repo lint + analyzer self-test"                 stage_lint
run_stage release "Release build + tests (warnings are errors)"    stage_release
run_stage bench-replay "BENCH files replay (bench_micro: non-timing)" stage_bench_replay
run_stage perfbench "benchmark smoke test (perfbench/)"             stage_perfbench
run_stage asan    "ASan+UBSan Debug build + tests"                 stage_asan
run_stage tsan    "TSan build + tests (thread pool race check)"    stage_tsan
run_stage faults  "tier-1 tests under injected faults (ASan)"      stage_faults
run_stage simd    "tier-1 tests under forced SIMD levels"          stage_simd
run_stage soak    "governor soak: 10k frames under faults (ASan)"  stage_soak
run_stage tidy    "static gate: analyzer ratchet + clang-tidy"     stage_tidy

echo "check.sh: all gates passed"
