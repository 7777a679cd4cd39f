// How injected runs end, and how much golden run they replay first: the
// exit census of the early exits in core/run.hpp. For each paper app at
// --prune=off, every region's first --runs campaign grid points
// (run_seed_for, as `fsim campaign --seed=S` draws them) run as a batch
// session runs them, in walks over the golden run (core::walks_of), and
// are sorted by where they stopped:
//   oracle      at injection, a memory byte the golden run never reads again
//   inert       at injection, an FPU bit no instruction reads
//   exact rung  at a later golden rung equal to the world bit for bit
//   obs. rung   at a later rung that differs only in state never read again
//   to the end  simulated to the end (every other outcome included)
// Each early exit gives exactly the outcome simulating to the end does
// (tests/core/earlyexit_test.cpp), so only the cost of a run depends on it.
// The last two columns count the golden instructions the runs advanced
// before their faults (RunContext::EarlyExits::replayed): through the
// walks, and with every point run alone from its start rung.
#include <cstdio>

#include "bench_util.hpp"

using namespace fsim;

namespace {

enum Exit : int { kOracle, kInert, kExactRung, kObservableRung, kEnd, kExits };

/// The early-exit counts of a tally at one instant.
struct Counts {
  std::uint64_t read_oracle = 0, rejoined = 0, observable = 0;
};

Counts counts_of(const core::RunContext::EarlyExits& e) {
  return {e.read_oracle, e.rejoined, e.observable};
}

/// Where the run that moved a tally from `a` to `b` ended.
Exit exit_of(const Counts& a, const Counts& b) {
  const bool observable = b.observable > a.observable;
  if (b.read_oracle > a.read_oracle) return kOracle;
  if (b.rejoined > a.rejoined) return observable ? kObservableRung : kExactRung;
  return observable ? kInert : kEnd;
}

std::string share(int n, int total) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%d (%.0f%%)", n,
                total > 0 ? 100.0 * n / total : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv, 50);
  std::printf("=== Exit census: where injected runs end (--prune=off) ===\n\n");
  util::Table t(std::to_string(args.runs) +
                " runs per region, 8 regions, seed " +
                std::to_string(args.seed));
  t.header({"app", "runs", "oracle", "inert", "exact rung", "obs. rung",
            "to the end", "replayed (walks)", "replayed (alone)"});
  util::ThreadPool pool(static_cast<std::size_t>(args.jobs));
  std::vector<core::WorldSlot> worlds(pool.workers());
  const core::CampaignConfig defaults;
  for (const std::string& name : apps::app_names()) {
    if (!args.quiet) std::fprintf(stderr, "%s...\n", name.c_str());
    const core::Prepared prepared =
        core::prepare(apps::make_app(name), defaults);
    core::RunContext ctx = prepared.context();
    ctx.prune = core::PruneLevel::kOff;
    std::vector<core::WalkPoint> points;
    for (int point = 0; point < args.runs; ++point)
      for (unsigned r = 0; r < core::kNumRegions; ++r) {
        const auto region = static_cast<core::Region>(r);
        points.push_back({region, prepared.dictionary(region),
                          core::run_seed_for(args.seed, region, point)});
      }
    const std::vector<std::vector<std::size_t>> walks =
        core::walks_of(prepared.golden(), points);

    // Each walk keeps a tally of its own, so the counts it moves between
    // two visits are the exits of the point just visited.
    std::vector<Exit> exits(points.size());
    std::vector<std::uint64_t> walked(walks.size()), alone(points.size());
    for (std::size_t k = 0; k < walks.size(); ++k)
      pool.submit([&, k] {
        core::RunContext::EarlyExits tally;
        core::RunContext walk_ctx = ctx;
        walk_ctx.exits = &tally;
        std::vector<core::WalkPoint> walk;
        for (const std::size_t i : walks[k]) walk.push_back(points[i]);
        Counts last;
        const auto w =
            static_cast<std::size_t>(util::ThreadPool::current_worker());
        core::run_walk(prepared.app(), prepared.program(), prepared.golden(),
                       walk, walk_ctx, &worlds[w],
                       [&](std::size_t j, const core::RunOutcome&) {
                         const Counts now = counts_of(tally);
                         exits[walks[k][j]] = exit_of(last, now);
                         last = now;
                         return true;
                       });
        walked[k] = tally.replayed;
      });
    for (std::size_t i = 0; i < points.size(); ++i)
      pool.submit([&, i] {
        core::RunContext::EarlyExits tally;
        core::RunContext run_ctx = ctx;
        run_ctx.exits = &tally;
        const core::WalkPoint& p = points[i];
        const auto w =
            static_cast<std::size_t>(util::ThreadPool::current_worker());
        core::run_injected(prepared.app(), prepared.program(),
                           prepared.golden(), p.region, p.dictionary, p.seed,
                           run_ctx, &worlds[w]);
        alone[i] = tally.replayed;
      });
    pool.wait();
    int count[kExits] = {};
    for (const Exit e : exits) ++count[e];
    std::uint64_t walked_total = 0, alone_total = 0;
    for (const std::uint64_t n : walked) walked_total += n;
    for (const std::uint64_t n : alone) alone_total += n;
    const int total = static_cast<int>(exits.size());
    t.row({name, std::to_string(total), share(count[kOracle], total),
           share(count[kInert], total), share(count[kExactRung], total),
           share(count[kObservableRung], total), share(count[kEnd], total),
           std::to_string(walked_total), std::to_string(alone_total)});
  }
  std::printf("%s\n", t.ascii().c_str());
  if (args.csv) std::printf("\n%s", t.csv().c_str());
  return 0;
}
