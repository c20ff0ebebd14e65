#!/usr/bin/env bash
# Build and run the end-to-end benchmark of rsnn_serve from this checkout.
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--results FILE]
#   bench/e2e/run.sh --compare BASE.jsonl NEW.jsonl
#
# Without --workload every workload runs in turn. The build, the generated
# model files, traces and the default results file (results.jsonl) live in
# .bench_build/e2e at the root of the checkout. Build output goes to
# .bench_build/e2e/build.log, so the last line of standard output is the
# run's JSON result.
set -u

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build/e2e"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
log="$build/build.log"

fail_build() {
  tail -n 25 "$log" >&2
  echo "run.sh: $1 failed (full log: $log)" >&2
  exit 1
}

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >"$log" 2>&1 ||
    fail_build "configure"
fi
cmake --build "$build" --target rsnn_e2e -j 4 >>"$log" 2>&1 ||
  fail_build "build"

case " $* " in
  *" --workload "* | *" --compare "*) exec "$build/rsnn_e2e" "$@" ;;
esac
status=0
for workload in lenet-open vgg-open mixed-bulk lenet-control; do
  "$build/rsnn_e2e" --workload "$workload" "$@" || status=1
done
exit $status
