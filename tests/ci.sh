#!/usr/bin/env bash
# One-shot CI gate: configure and build the tree with warnings-as-errors,
# then run every gate once. The plain ctest stage covers the unit tests,
# the lint gate (warnings fatal), the docs drift check, the multi-process
# kill/resume crash-tolerance gate, the elastic re-sharding gate (a
# mid-run worker death and a mid-run join), the adaptive (--ci)
# determinism gate (jobs/kill-resume/shard) and the prune x engine matrix
# (digest identity across off|full x interp|threaded x jobs 1|8, the
# execution-engine A/B gate, and the rung bite and ladder coverage gates).
# The stages after it run what ctest leaves to the `ci` configuration or
# to nobody: the two-tenant fairness + daemon-restart service e2e, the
# recorded adaptive reference digest, the >=2x adaptive run-savings bench
# and the heap/stack rung inventory gate (every app must keep at least one
# provably read-free allocation site and an enabled frame rung) —
# optionally repeating the whole cycle under AddressSanitizer. Without
# --asan, a focused ASan pass still builds the CLI and drives the
# heap/stack scans (analyze, lint and profile, each of which builds the
# full analysis bundle) on every app, runs the reader fuzz
# (mutated checkpoints in both encodings, read and rendered as the status
# table, and service assign lines must raise SetupError only), and runs the memory-window, snapshot and
# rung-equality, flat-collective size sweep, engine-lockstep, golden
# fast-forward, early-exit, injected-walk, injector and Prepare tests, the static-analysis tests
# (AnalysisFacts, FpDepth, Lint, PrecisionTrace), the service Scheduler
# tests (including the refused second join) and the one-session batch test
# (many selections through one borrowed BatchSession). Two more stages
# always run. A Release build of every target with warnings fatal catches
# what GCC reports only at -O2; it compiles and runs nothing. A focused
# ThreadSanitizer pass runs the tests that drive the session pool: the
# batch tests (golden runs as pool tasks beside the analyses, each
# worker's reused World, a throwing observer stopping the walk), the
# checkpoint crash test (a jobs=1 walk stopped on its fifth run), Prepare,
# ThreadPool, CampaignParallel, the injected-walk and injector tests
# (walks restoring into a slot's World and recapturing its boundary
# snapshot; the walk test's interpreter instances run the same walks
# several times slower, so only the threaded ones run here) and the
# service Scheduler. Throughput is perfbench's
# job (perfbench/run.py), not CI's.
#
#   tests/ci.sh [--asan] [--build-dir=DIR] [--jobs=N]
#
#   --asan        after the plain gate passes, reconfigure a second build
#                 tree with FSIM_SANITIZE=address and run the suite again
#   --build-dir   scratch build root (default: <repo>/build-ci)
#   --jobs        parallel build/test width (default: nproc)
#
# Exit status is nonzero on the first failing stage. Registered as the
# ctest `ci_script` smoke test (label "ci"), which exercises the plain
# gate against a fresh build tree.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-ci"
jobs="$(nproc 2>/dev/null || echo 4)"
asan=0

for arg in "$@"; do
  case "$arg" in
    --asan) asan=1 ;;
    --build-dir=*) build="${arg#--build-dir=}" ;;
    --jobs=*) jobs="${arg#--jobs=}" ;;
    *) echo "ci.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

run_gate() {
  local dir="$1"; shift
  local fsim="$dir/src/tools/fsim"
  echo "=== ci: configure ($dir: $*) ==="
  cmake -B "$dir" -S "$root" -DFSIM_WERROR=ON "$@"
  echo "=== ci: build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== ci: ctest ==="
  (cd "$dir" && ctest --output-on-failure -j "$jobs")
  echo "=== ci: multi-tenant service e2e (fairness, daemon restart) ==="
  bash "$root/tests/service_e2e_test.sh" "$fsim"
  echo "=== ci: adaptive reference-digest gate ==="
  adaptive_ref=2694787265147498570
  adaptive_digest="$("$fsim" batch --apps=wavetoy --runs=120 \
                       --ci=0.05 --wave=25 --jobs="$jobs" --json --quiet \
                       | grep -o '"digest": *[0-9]*' | head -1 \
                       | grep -o '[0-9]*')"
  echo "  --ci=0.05 wavetoy digest -> $adaptive_digest"
  if [ "$adaptive_digest" != "$adaptive_ref" ]; then
    echo "ci.sh: adaptive digest $adaptive_digest != recorded $adaptive_ref" >&2
    exit 1
  fi
  echo "=== ci: adaptive savings gate (>=2x fewer runs at equal CI) ==="
  "$dir/bench/bench_adaptive_savings" --runs=200 --jobs="$jobs" > /dev/null
  echo "=== ci: heap/stack rung inventory gate ==="
  for app in wavetoy minimd atmo; do
    inv="$("$fsim" analyze --app="$app" --runs=0 --quiet)"
    echo "$inv" | grep -E "heap sites|frame rung" | sed 's/^/  '"$app"':/'
    echo "$inv" | grep -Eq "heap sites: *[1-9][0-9]* of" || {
      echo "ci.sh: $app has no provably read-free allocation site" >&2
      exit 1
    }
    echo "$inv" | grep -q "frame rung: *enabled" || {
      echo "ci.sh: $app stack-frame rung disabled" >&2
      exit 1
    }
  done
}

run_gate "$build"

echo "=== ci: Release -Werror build ==="
release_dir="$build-release"
cmake -B "$release_dir" -S "$root" -DFSIM_WERROR=ON \
      -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$release_dir" -j "$jobs" > /dev/null
echo "  every target builds warning-free in Release"

echo "=== ci: TSan session-pool gate ==="
# A session prepares its campaigns as pool tasks that write one Prepared
# from two threads (analysis and golden run), and each pool worker walks
# its tasks' points over a World it keeps, recapturing the walk's boundary
# snapshot in place. A run or observer that throws stops the walk: the
# tasks not yet started see a flag another worker set.
tsan_dir="$build-tsan"
cmake -B "$tsan_dir" -S "$root" -DFSIM_WERROR=ON \
      -DFSIM_SANITIZE=thread > /dev/null
cmake --build "$tsan_dir" -j "$jobs" --target core_tests util_tests \
  service_tests > /dev/null
(cd "$tsan_dir" &&
   tests/core_tests --gtest_brief=1 \
     --gtest_filter='Batch.*:Prepare.*:CampaignParallel.*:Checkpoint.ShardOutputEqualsItsSidecar:WalkEdges.*:PaperApps/Walk.*/*_threaded:Injector.*' &&
   tests/util_tests --gtest_brief=1 --gtest_filter='ThreadPool.*' &&
   tests/service_tests --gtest_brief=1 --gtest_filter='Scheduler.*')
echo "  batch, checkpoint-crash, prepare, pool, campaign-parallel, walk," \
     "injector and scheduler tests clean under ThreadSanitizer"

if [ "$asan" -eq 1 ]; then
  run_gate "$build-asan" -DFSIM_SANITIZE=address
else
  # Focused ASan pass: the interprocedural heap scan and the frame-window
  # builder are the pointer-heaviest analyses in the tree; drive them (via
  # analyze, lint and profile, which each build the whole ProgramAnalysis
  # bundle on every app) under AddressSanitizer even when the full --asan
  # cycle was not requested.
  echo "=== ci: ASan heap/stack scan gate ==="
  scan_dir="$build-scan-asan"
  cmake -B "$scan_dir" -S "$root" -DFSIM_WERROR=ON \
        -DFSIM_SANITIZE=address > /dev/null
  cmake --build "$scan_dir" -j "$jobs" --target fsim_cli reader_fuzz_tests \
    svm_tests simmpi_tests core_tests service_tests > /dev/null
  for app in wavetoy minimd atmo jacobi; do
    "$scan_dir/src/tools/fsim" analyze --app="$app" --runs=0 --quiet \
      > /dev/null
  done
  "$scan_dir/src/tools/fsim" lint --app=all > /dev/null
  "$scan_dir/src/tools/fsim" profile > /dev/null
  echo "  analyze+lint+profile clean under AddressSanitizer"
  (cd "$scan_dir" && tests/reader_fuzz_tests --gtest_brief=1)
  echo "  reader fuzz clean under AddressSanitizer"
  # Memory windows grow in place inside fixed reservations, the threaded
  # engine caches pointers into them, and the read log indexes raw stamp
  # arrays: the window, snapshot and rung-equality (the observable compare
  # walks differing granules of two windows in place, SnapshotMatches.*;
  # a recaptured snapshot reuses its mapping), engine-lockstep,
  # fast-forward and early-exit (oracle parity and boundary, the
  # ignored-FPU-state fence) tests run under ASan too, as do the walk
  # tests (one World restored to a boundary snapshot point after point)
  # and the injector's draw-then-apply digests, as
  # do the static-analysis tests (the pinned fact digests, FP depth, lint
  # and the precision trace), whose passes index per-function block lists
  # through the shared dataflow driver. The
  # collective sweeps hold heap-buffered messages and reduction vectors
  # across world sizes, and the Prepare tests read a moved Prepared's
  # analysis bundle, which points into its Program. A service worker runs
  # every chunk of a job through one session it keeps, so the runs that
  # borrow a session and the scheduler's worker slots run under ASan too.
  (cd "$scan_dir" &&
     tests/svm_tests --gtest_brief=1 \
       --gtest_filter='Memory.*:EngineDiff.*:AllApps/EngineDiffTest.*:AnalysisFacts.*:FpDepth*:Lint.*:PrecisionTrace.*' &&
     tests/simmpi_tests --gtest_brief=1 \
       --gtest_filter='Snapshot*:Sizes/BarrierSizes.*:Sizes/AllreduceSizes.*:Collectives.*' &&
     tests/core_tests --gtest_brief=1 \
       --gtest_filter='*FastForward*:EarlyExit.*:Prepare.*:Batch.OneSessionServesManySelections:*Walk*:Injector.*' &&
     tests/service_tests --gtest_brief=1 --gtest_filter='Scheduler.*')
  echo "  memory windows, snapshots, collectives, fast-forward, early exit, walks, injector, prepare, session reuse, scheduler and analysis tests clean under AddressSanitizer"
fi

echo "=== ci: all gates passed ==="
