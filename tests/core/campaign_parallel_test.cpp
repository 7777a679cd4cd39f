// The parallel campaign executor must be a pure speedup: for a fixed seed,
// every aggregate field of every RegionResult is bit-identical no matter
// how many workers execute the (region, run) grid.
#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "core/campaign.hpp"

namespace fsim::core {
namespace {

apps::App tiny_wavetoy() {
  apps::WavetoyConfig cfg;
  cfg.ranks = 4;
  cfg.columns = 8;
  cfg.rows = 8;
  cfg.steps = 8;
  cfg.cold_functions = 10;
  cfg.cold_heap_arrays = 1;
  return apps::make_wavetoy(cfg);
}

CampaignConfig base_config() {
  CampaignConfig cfg;
  cfg.runs_per_region = 12;
  cfg.seed = 0xfee1;
  // Cover a register region, a dictionary-backed static region and the
  // message channel — the three structurally different injection paths.
  cfg.regions = {Region::kRegularReg, Region::kData, Region::kMessage};
  return cfg;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.regions.size(), b.regions.size());
  EXPECT_EQ(a.golden.instructions, b.golden.instructions);
  EXPECT_EQ(a.golden.baseline, b.golden.baseline);
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    const RegionResult& ra = a.regions[i];
    const RegionResult& rb = b.regions[i];
    EXPECT_EQ(ra.region, rb.region);
    EXPECT_EQ(ra.executions, rb.executions);
    EXPECT_EQ(ra.skipped, rb.skipped);
    EXPECT_EQ(ra.counts, rb.counts);
    EXPECT_EQ(ra.crash_kinds, rb.crash_kinds);
  }
}

TEST(CampaignParallel, JobsOneTwoAndEightAreBitIdentical) {
  const apps::App app = tiny_wavetoy();
  CampaignConfig cfg = base_config();

  ExecPolicy exec;
  exec.jobs = 1;
  const CampaignResult serial = run_campaign(app, cfg, exec);
  exec.jobs = 2;
  const CampaignResult two = run_campaign(app, cfg, exec);
  exec.jobs = 8;
  const CampaignResult eight = run_campaign(app, cfg, exec);

  expect_identical(serial, two);
  expect_identical(serial, eight);
}

TEST(CampaignParallel, ParallelRunIsInternallyDeterministic) {
  const apps::App app = tiny_wavetoy();
  CampaignConfig cfg = base_config();
  ExecPolicy exec;
  exec.jobs = 4;
  const CampaignResult a = run_campaign(app, cfg, exec);
  const CampaignResult b = run_campaign(app, cfg, exec);
  expect_identical(a, b);
}

TEST(CampaignParallel, ProgressReachesTotalExactlyOncePerRegion) {
  const apps::App app = tiny_wavetoy();
  CampaignConfig cfg = base_config();
  ExecPolicy exec;
  exec.jobs = 4;
  struct PerRegion final : CampaignObserver {
    std::array<int, kNumRegions> calls{};
    std::array<int, kNumRegions> completions{};
    std::array<int, kNumRegions> max_done{};
    void on_run_done(const RunEvent& ev) override {
      // Invoked under the executor's mutex, so plain increments are safe.
      const auto idx = static_cast<unsigned>(ev.region);
      ++calls[idx];
      if (ev.done == ev.total) ++completions[idx];
      if (ev.done > max_done[idx]) max_done[idx] = ev.done;
    }
  } obs;
  exec.observer = &obs;
  (void)run_campaign(app, cfg, exec);
  const auto& calls = obs.calls;
  const auto& completions = obs.completions;
  const auto& max_done = obs.max_done;
  for (Region r : cfg.regions) {
    const auto idx = static_cast<unsigned>(r);
    EXPECT_EQ(calls[idx], cfg.runs_per_region);
    EXPECT_EQ(completions[idx], 1);
    EXPECT_EQ(max_done[idx], cfg.runs_per_region);
  }
}

}  // namespace
}  // namespace fsim::core
