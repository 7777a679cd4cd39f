// Quickstart: prepare a benchmark application (golden run included), then
// inject a single register bit flip and classify the outcome — the whole
// public API in thirty lines.
//
//   ./build/examples/quickstart [--app=wavetoy|minimd|atmo] [--seed=N]
#include <cstdio>

#include "apps/app.hpp"
#include "core/campaign.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"

int main(int argc, char** argv) try {
  using namespace fsim;
  util::Cli cli(argc, argv);
  const std::string name = cli.str("app", "wavetoy");
  const std::uint64_t seed = cli.u64("seed", 7);
  cli.reject_unused();

  // 1. Pick an application: a generated SVM assembly program plus its
  //    world configuration (ranks, scheduler, baseline stream).
  apps::App app = apps::make_app(name);
  std::printf("app: %s (%d ranks, %zu bytes of assembly)\n", app.name.c_str(),
              app.world.nranks, app.user_asm.size());

  // 2. Prepare its fault space once, fault-free reference run included;
  //    without static pruning every run is simulated to its end.
  core::CampaignConfig config;
  config.prune = core::PruneLevel::kOff;
  const core::Prepared prepared = core::prepare(app, config);
  const core::Golden& golden = prepared.golden();
  std::printf("golden run: %llu instructions, %zu baseline bytes\n",
              static_cast<unsigned long long>(golden.instructions),
              golden.baseline.size());

  // 3. One injected run: a single bit flip in a random integer register of
  //    a random rank at a random instant.
  const core::RunOutcome out = prepared.run(core::Region::kRegularReg, seed);

  std::printf("fault:   %s\n", out.fault_description.c_str());
  std::printf("outcome: %s%s%s\n", core::manifestation_name(out.manifestation),
              out.failure_detail.empty() ? "" : " — ",
              out.failure_detail.c_str());
  return 0;
} catch (const fsim::util::SetupError& e) {
  std::fprintf(stderr, "quickstart: %s\n", e.what());
  return 1;
}
