// How injected runs end: the exit census of the early exits in
// core/run.hpp. For each paper app at --prune=off, every region's first
// --runs campaign grid points (run_seed_for, as `fsim campaign --seed=S`
// draws them) are run and sorted by where they stopped:
//   oracle      at injection, a memory byte the golden run never reads again
//   inert       at injection, an FPU bit no instruction reads
//   exact rung  at a later golden rung equal to the world bit for bit
//   obs. rung   at a later rung that differs only in state never read again
//   to the end  simulated to the end (every other outcome included)
// Each early exit gives exactly the outcome simulating to the end does
// (tests/core/earlyexit_test.cpp), so only the cost of a run depends on it.
#include <cstdio>

#include "bench_util.hpp"

using namespace fsim;

namespace {

enum Exit : int { kOracle, kInert, kExactRung, kObservableRung, kEnd, kExits };

Exit exit_of(const core::RunContext::EarlyExits& e) {
  if (e.read_oracle > 0) return kOracle;
  if (e.rejoined > 0) return e.observable > 0 ? kObservableRung : kExactRung;
  return e.observable > 0 ? kInert : kEnd;
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
            "to the end"});
  util::ThreadPool pool(static_cast<std::size_t>(args.jobs));
  std::vector<core::WorldSlot> worlds(pool.workers());
  const core::CampaignConfig defaults;
  for (const std::string& name : apps::app_names()) {
    if (!args.quiet) std::fprintf(stderr, "%s...\n", name.c_str());
    const core::Prepared prepared =
        core::prepare(apps::make_app(name), defaults);
    std::vector<Exit> exits(static_cast<std::size_t>(args.runs) *
                            core::kNumRegions);
    for (std::size_t i = 0; i < exits.size(); ++i)
      pool.submit([&, i] {
        const auto region = static_cast<core::Region>(i % core::kNumRegions);
        const int point = static_cast<int>(i / core::kNumRegions);
        core::RunContext::EarlyExits tally;
        core::RunContext ctx = prepared.context();
        ctx.prune = core::PruneLevel::kOff;
        ctx.exits = &tally;
        const auto w =
            static_cast<std::size_t>(util::ThreadPool::current_worker());
        core::run_injected(prepared.app(), prepared.program(),
                           prepared.golden(), region,
                           prepared.dictionary(region),
                           core::run_seed_for(args.seed, region, point), ctx,
                           &worlds[w]);
        exits[i] = exit_of(tally);
      });
    pool.wait();
    int count[kExits] = {};
    for (const Exit e : exits) ++count[e];
    const int total = static_cast<int>(exits.size());
    t.row({name, std::to_string(total), share(count[kOracle], total),
           share(count[kInert], total), share(count[kExactRung], total),
           share(count[kObservableRung], total), share(count[kEnd], total)});
  }
  std::printf("%s\n", t.ascii().c_str());
  if (args.csv) std::printf("\n%s", t.csv().c_str());
  return 0;
}
