// Adaptive-vs-fixed sampling cost: the same campaigns run twice at equal
// statistical targets —
//   fixed:     Cochran fixed-n, every (app, region) cell gets --runs
//              injections (385 = d 5% at 95% on the worst-case p = 0.5)
//   adaptive:  the --ci wave scheduler, each cell stopping at the Wilson
//              half-width the fixed design guarantees a priori
// Emitted as JSON with per-app injected-run counts, wall times and the
// savings factor. Doubles as a determinism gate: the adaptive schedule
// at --jobs must replay bit-identically on one worker (at --jobs=1 the
// gate compares two serial runs), the per-app savings must reach >= 2x,
// and the process exits nonzero on any violation.
//
//   bench_adaptive_savings [--runs=N] [--seed=S] [--jobs=N] [--quiet]
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/adaptive.hpp"
#include "util/json.hpp"

using namespace fsim;

namespace {

std::vector<core::BatchEntry> paper_batch(const bench::BenchArgs& args) {
  std::vector<core::BatchEntry> entries(2);
  entries[0].app = apps::make_app("wavetoy");
  entries[1].app = apps::make_app("minimd");
  for (auto& e : entries) {
    e.config.runs_per_region = args.runs;
    e.config.seed = args.seed;
  }
  return entries;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv, 385);

  // Equal targets by construction: the adaptive ci is exactly the d the
  // fixed-n design of `--runs` guarantees on the worst-case proportion.
  const double target =
      core::estimation_error(0.05, static_cast<std::uint64_t>(args.runs));
  const std::vector<core::BatchEntry> entries = paper_batch(args);
  std::fprintf(stderr,
               "adaptive savings: %zu apps, fixed-n %d/region vs --ci=%.4f "
               "at 95%%, %d jobs\n",
               entries.size(), args.runs, target, args.jobs);

  core::AdaptiveConfig ac;
  ac.policy.ci = target;
  ac.jobs = args.jobs;
  auto t0 = std::chrono::steady_clock::now();
  const core::AdaptiveResult adaptive = core::run_adaptive(entries, ac);
  const double adaptive_seconds = seconds_since(t0);

  // Determinism gate: the whole document — counts, schedule, intervals —
  // must replay bit for bit serially.
  core::AdaptiveConfig serial = ac;
  serial.jobs = 1;
  const core::AdaptiveResult replay = core::run_adaptive(entries, serial);
  const bool deterministic =
      core::adaptive_json(replay) == core::adaptive_json(adaptive);

  core::BatchConfig bc;
  bc.jobs = args.jobs;
  t0 = std::chrono::steady_clock::now();
  const core::BatchResult fixed = core::run_batch(entries, bc);
  const double fixed_seconds = seconds_since(t0);

  // Per-app injected-run totals and the >= 2x savings gate.
  bool savings_ok = true;
  std::uint64_t fixed_total = 0;
  std::vector<std::uint64_t> adaptive_runs(entries.size(), 0);
  std::vector<std::uint64_t> fixed_runs(entries.size(), 0);
  for (const auto& cell : adaptive.cells)
    adaptive_runs[cell.campaign] +=
        static_cast<std::uint64_t>(cell.scheduled);
  for (std::size_t c = 0; c < entries.size(); ++c) {
    fixed_runs[c] = static_cast<std::uint64_t>(args.runs) *
                    entries[c].config.regions.size();
    fixed_total += fixed_runs[c];
    if (2 * adaptive_runs[c] > fixed_runs[c]) savings_ok = false;
  }

  // Every target-stopped cell must actually be at or under the target,
  // and capped cells can only happen if the cap is under the Cochran n.
  bool targets_ok = true;
  for (const auto& cell : adaptive.cells) {
    if (cell.stop == core::CellStop::kTarget && cell.half_width > target)
      targets_ok = false;
    if (cell.stop == core::CellStop::kOpen) targets_ok = false;
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("adaptive_savings");
  w.key("seed").value(args.seed);
  w.key("jobs").value(args.jobs);
  w.key("fixed_runs_per_region").value(args.runs);
  w.key("ci_target").value(target);
  w.key("apps").begin_array();
  for (std::size_t c = 0; c < entries.size(); ++c) {
    w.begin_object();
    w.key("app").value(entries[c].app.name);
    w.key("fixed_runs").value(fixed_runs[c]);
    w.key("adaptive_runs").value(adaptive_runs[c]);
    w.key("savings_x")
        .value(adaptive_runs[c] > 0
                   ? static_cast<double>(fixed_runs[c]) /
                         static_cast<double>(adaptive_runs[c])
                   : 0.0);
    w.end_object();
  }
  w.end_array();
  w.key("fixed_total_runs").value(fixed_total);
  w.key("adaptive_total_runs").value(adaptive.total_runs);
  w.key("adaptive_pruned_runs").value(adaptive.pruned_runs);
  w.key("fixed_seconds").value(fixed_seconds);
  w.key("adaptive_seconds").value(adaptive_seconds);
  w.key("speedup_x")
      .value(adaptive_seconds > 0 ? fixed_seconds / adaptive_seconds : 0.0);
  w.key("digest").value(core::batch_digest(adaptive.batch));
  w.key("deterministic_across_jobs").value(deterministic);
  w.key("savings_at_least_2x_per_app").value(savings_ok);
  w.key("targets_met").value(targets_ok);
  w.end_object();
  std::printf("%s\n", w.str().c_str());

  if (!deterministic)
    std::fprintf(stderr, "FAIL: adaptive schedule diverged across --jobs\n");
  if (!savings_ok)
    std::fprintf(stderr, "FAIL: adaptive saved less than 2x on some app\n");
  if (!targets_ok)
    std::fprintf(stderr, "FAIL: a cell stopped above the CI target\n");
  return deterministic && savings_ok && targets_ok ? 0 : 1;
}
