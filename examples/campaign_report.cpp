// Campaign example: run a small fault-injection campaign over selected
// regions of one application and print a paper-style results table.
//
//   ./build/examples/campaign_report --app=minimd --runs=50
//       --regions=regular,message --jobs=8
#include <cstdio>
#include <sstream>

#include "apps/app.hpp"
#include "core/campaign.hpp"
#include "core/sampling.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) try {
  using namespace fsim;
  util::Cli cli(argc, argv);
  const std::string name = cli.str("app", "minimd");
  const int runs = cli.count("runs", 50);
  const std::string regions = cli.str("regions", "regular,stack,message");
  const int jobs =
      cli.count("jobs", static_cast<int>(util::ThreadPool::default_workers()));
  cli.reject_unused();

  apps::App app = apps::make_app(name);

  core::CampaignConfig cfg;
  cfg.runs_per_region = runs;
  core::ExecPolicy exec;
  exec.jobs = jobs;
  cfg.regions.clear();
  std::istringstream rs(regions);
  std::string tok;
  while (std::getline(rs, tok, ',')) cfg.regions.push_back(core::parse_region(tok));
  class RegionTicker final : public core::CampaignObserver {
   public:
    void on_region_done(std::size_t, const std::string&, core::Region region,
                        int executed) override {
      std::fprintf(stderr, "  %s: %d runs done\n", core::region_name(region),
                   executed);
    }
  } ticker;
  exec.observer = &ticker;

  std::printf("campaign: %s, %d runs/region (estimation error d = %.1f%% at "
              "95%% confidence)\n\n",
              app.name.c_str(), runs,
              100.0 * core::estimation_error(0.05, static_cast<std::uint64_t>(runs)));

  const core::CampaignResult result = core::run_campaign(app, cfg, exec);
  std::printf("%s", core::format_campaign(result).c_str());
  return 0;
} catch (const fsim::util::SetupError& e) {
  std::fprintf(stderr, "campaign_report: %s\n", e.what());
  return 1;
}
