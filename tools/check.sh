#!/usr/bin/env bash
# Tier-1 verification in both build configurations:
#   1. Release            — the production configuration (hot-path asserts
#                           compiled out of the benches/tools; the test
#                           targets always link the checked library twin).
#   2. Release + RSNN_CHECKED=ON — RSNN_DCHECK active in *every* target, so
#                           the full suite runs bounds-checked end to end.
# plus the invariant-4 gate (bench/ablation_cycle_model: stepped cycles equal
# the latency annotations over 24 randomized geometries), a forced-scalar
# rerun of the SIMD-sensitive suites
# (RSNN_FORCE_SCALAR=1 pins the vector kernels' scalar fallback to the same
# bit-identical results), an RTL-emission smoke, a sanitizer (ASan+UBSan)
# pass over the serving, fault, segment-chain, fast-path and property
# suites, and a ThreadSanitizer pass over the serving, fault, segment-chain
# and fast-path suites (the serving pool's supervision / retry machinery is
# lock-heavy; TSan is the tier that catches ordering bugs ASan cannot).
#
# The library targets build with -Wall -Wextra; this script treats any
# compiler warning as a failure so the targets stay warnings-clean.
#
# Exit-code discipline: every pass checks its own status explicitly (the
# script also sets -e/-o pipefail as a backstop, and reads PIPESTATUS for
# the tee'd build so a compile failure can never be masked by the pipe).
# Temp files/dirs are cleaned up by trap on any exit path.
#
# Usage: tools/check.sh [--fast] [jobs]   (jobs defaults to all hardware
# threads). --fast runs only the Release build + ctest — the smoke tier CI
# uses for quick iteration; the full run remains the pre-merge bar.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
JOBS=""
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) JOBS="$arg" ;;
  esac
done
JOBS="${JOBS:-$(nproc)}"

CLEANUP_PATHS=()
cleanup() {
  local path
  for path in "${CLEANUP_PATHS[@]+"${CLEANUP_PATHS[@]}"}"; do
    rm -rf "$path"
  done
}
trap cleanup EXIT

run_config() {
  local name="$1" build_dir="$2"
  shift 2
  echo "==== [$name] configure ===="
  if ! cmake -B "$build_dir" -S . "$@"; then
    echo "==== [$name] FAILED: configure ===="
    return 1
  fi
  echo "==== [$name] build ===="
  local log build_status
  log="$(mktemp)"
  CLEANUP_PATHS+=("$log")
  set +e
  cmake --build "$build_dir" -j "$JOBS" 2>&1 | tee "$log"
  build_status="${PIPESTATUS[0]}"
  set -e
  if [ "$build_status" -ne 0 ]; then
    echo "==== [$name] FAILED: build exited with status $build_status ===="
    return "$build_status"
  fi
  if grep -q "warning:" "$log"; then
    echo "==== [$name] FAILED: compiler warnings (targets must stay" \
         "warnings-clean) ===="
    return 1
  fi
  echo "==== [$name] ctest ===="
  if ! ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"; then
    echo "==== [$name] FAILED: ctest ===="
    return 1
  fi
}

run_config "Release" build-check-release -DCMAKE_BUILD_TYPE=Release

# 1a. Invariant 4: the analytic latency model against stepped cycle counts.
echo "==== [Release] invariant-4 gate (ablation_cycle_model) ===="
if ! ./build-check-release/ablation_cycle_model > /dev/null; then
  echo "==== [Release] FAILED: ablation_cycle_model found a cycle mismatch ===="
  exit 1
fi

# 1b. Forced-scalar dispatch: rerun the SIMD-sensitive suites on the same
#     Release binaries with RSNN_FORCE_SCALAR=1, so the scalar fallback of
#     the vector kernels stays bit-identical on every machine, not just
#     ones without AVX2.
echo "==== [Release] forced-scalar dispatch (RSNN_FORCE_SCALAR=1) ===="
if ! RSNN_FORCE_SCALAR=1 ctest --test-dir build-check-release \
    --output-on-failure -j "$JOBS" \
    -R 'test_fastpath|test_equivalence_packed|test_property'; then
  echo "==== [Release] FAILED: forced-scalar ctest ===="
  exit 1
fi

if [ "$FAST" -eq 1 ]; then
  echo "==== fast mode: Release build + ctest + invariant-4 gate +" \
       "forced-scalar passed (skipping checked, RTL-smoke and sanitizer" \
       "tiers) ===="
  exit 0
fi

run_config "Release+RSNN_CHECKED" build-check-checked \
    -DCMAKE_BUILD_TYPE=Release -DRSNN_CHECKED=ON

# 3. RTL-emission smoke: generate the per-segment bundles for a 2-stage
#    LeNet pipeline and assert every stage directory holds a non-empty
#    stage top, manifest and filelist (catches emitter regressions that the
#    unit tests' in-memory checks could miss at the filesystem boundary).
echo "==== [Release] RTL emission smoke (2-stage LeNet bundles) ===="
RTL_SMOKE_DIR="$(mktemp -d)"
CLEANUP_PATHS+=("$RTL_SMOKE_DIR")
cmake --build build-check-release -j "$JOBS" --target generate_rtl
./build-check-release/generate_rtl "$RTL_SMOKE_DIR" 2 2 > /dev/null
for stage in stage0 stage1; do
  for f in rsnn_accel_"$stage".sv "$stage"_manifest.txt rsnn_accel_"$stage".f \
           stream_endpoint.sv; do
    if [ ! -s "$RTL_SMOKE_DIR/$stage/$f" ]; then
      echo "==== RTL smoke FAILED: $stage/$f missing or empty ===="
      exit 1
    fi
  done
done
echo "==== RTL emission smoke passed ===="

# 4. Sanitizer pass (ASan + UBSan): builds only the suites below and runs
#    them instrumented, validating the serving pool's admission queue and
#    replica dispatchers, the serving daemon's socket / registry /
#    connection threads, the fault-injection chaos suite, the stage engines'
#    mid-program entry (inherited and re-lowered segments), the fast path
#    and the property sweep for memory and UB errors without paying for a
#    full sanitized suite run.
echo "==== [Release+RSNN_SANITIZE] configure ===="
cmake -B build-check-sanitize -S . \
    -DCMAKE_BUILD_TYPE=Release -DRSNN_SANITIZE=ON
echo "==== [Release+RSNN_SANITIZE] build (sanitized suites) ===="
cmake --build build-check-sanitize -j "$JOBS" \
    --target test_pipeline test_equivalence_packed test_relower test_serving \
      test_serve test_faults test_fastpath test_property
echo "==== [Release+RSNN_SANITIZE] ctest ===="
ctest --test-dir build-check-sanitize --output-on-failure -j "$JOBS" \
    -R 'test_pipeline|test_equivalence_packed|test_relower|test_serving|test_serve$|test_faults|test_fastpath|test_property'

# 5. ThreadSanitizer pass: the serving, fault, segment-chain and fast-path
#    suites under RSNN_SANITIZE_THREAD (its own build directory — TSan and
#    ASan cannot share one). This is the tier that validates the serving
#    pool's replica supervision, retry backoff and shutdown paths for data
#    races and lock-order inversions.
echo "==== [Release+RSNN_SANITIZE_THREAD] configure ===="
cmake -B build-check-tsan -S . \
    -DCMAKE_BUILD_TYPE=Release -DRSNN_SANITIZE_THREAD=ON
echo "==== [Release+RSNN_SANITIZE_THREAD] build (sanitized suites) ===="
cmake --build build-check-tsan -j "$JOBS" \
    --target test_pipeline test_equivalence_packed test_serving test_serve \
      test_faults test_fastpath
echo "==== [Release+RSNN_SANITIZE_THREAD] ctest ===="
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
  ctest --test-dir build-check-tsan --output-on-failure -j "$JOBS" \
    -R 'test_pipeline|test_equivalence_packed|test_serving|test_serve$|test_faults|test_fastpath'

echo "==== all configurations passed ===="
