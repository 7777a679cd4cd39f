// Regenerates Tables 2-4 (Wavetoy, NAMD/minimd, CAM/atmo) from ONE batch
// run: the three apps share a single worker pool over the combined
// (campaign, region, run) grid, each program linked once. Per-run seeds
// depend only on (campaign seed, region, run index), so every table is
// bit-identical to a one-app `fsim campaign` at any --jobs; the printed
// digest is the equality oracle (compare it against
// `fsim batch --apps=wavetoy,minimd,atmo --runs=N --seed=S --json`).
//
//   tables234_batch [--runs=N] [--seed=S] [--jobs=N] [--csv] [--json]
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace fsim;
  const bench::BenchArgs args = bench::parse_args(argc, argv, 200);

  std::vector<core::BatchEntry> entries;
  for (const char* name : {"wavetoy", "minimd", "atmo"}) {
    core::BatchEntry e;
    e.app = apps::make_app(name);
    e.config.runs_per_region = args.runs;
    e.config.seed = args.seed;
    entries.push_back(std::move(e));
  }

  core::BatchConfig bc;
  bc.jobs = args.jobs;
  if (!args.quiet) bc.observer = bench::progress_ticker();
  const core::BatchResult batch = core::run_batch(entries, bc);

  for (const core::CampaignResult& res : batch.campaigns) {
    bench::print_table(res, args.runs);
    std::printf("\n");
  }
  std::printf("batch digest: %llu (equals the shard-merged digest and the\n"
              "per-app campaign digests folded in order)\n",
              static_cast<unsigned long long>(core::batch_digest(batch)));

  if (args.csv) std::printf("\n%s", core::batch_csv(batch).c_str());
  if (args.json) std::printf("\n%s\n", core::batch_json(batch).c_str());
  return 0;
}
