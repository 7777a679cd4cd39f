// Pre-injection pruning must be a pure shortcut: for a fixed seed the
// campaign aggregates with --prune=full are bit-identical to --prune=off
// (a statically dead target flip replays the golden run, so classifying
// it Correct without resuming changes nothing observable), while actually
// short-circuiting a nonzero share of the injections in every region the
// analysis covers — integer registers, empty FP-stack slots, unreachable
// text and dead data/BSS bytes.
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
  cfg.runs_per_region = 24;
  cfg.seed = 0x9e2a;
  cfg.regions = {Region::kRegularReg, Region::kFpReg, Region::kText,
                 Region::kData, Region::kBss};
  return cfg;
}

void expect_same_aggregates(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    const RegionResult& ra = a.regions[i];
    const RegionResult& rb = b.regions[i];
    EXPECT_EQ(ra.region, rb.region);
    EXPECT_EQ(ra.executions, rb.executions);
    EXPECT_EQ(ra.skipped, rb.skipped);
    EXPECT_EQ(ra.counts, rb.counts) << region_name(ra.region);
    EXPECT_EQ(ra.crash_kinds, rb.crash_kinds);
    // Activation tagging is injection-side and seed-driven, so it too is
    // independent of whether pruning short-circuits the run.
    EXPECT_EQ(ra.act_executions, rb.act_executions);
    EXPECT_EQ(ra.act_counts, rb.act_counts);
  }
}

int pruned_in(const CampaignResult& res, Region region) {
  const RegionResult* rr = res.find(region);
  return rr ? rr->pruned : 0;
}

TEST(Prune, FullAndOffProduceIdenticalAggregates) {
  const apps::App app = tiny_wavetoy();
  CampaignConfig cfg = base_config();

  cfg.prune = PruneLevel::kFull;
  const CampaignResult full = run_campaign(app, cfg);
  cfg.prune = PruneLevel::kOff;
  const CampaignResult off = run_campaign(app, cfg);

  expect_same_aggregates(full, off);

  // Full pruning must actually fire in every analysed region class the
  // tiny app exposes dead targets for...
  EXPECT_GT(pruned_in(full, Region::kRegularReg), 0);
  EXPECT_GT(pruned_in(full, Region::kFpReg), 0);
  EXPECT_GT(pruned_in(full, Region::kText), 0);
  // ...and never with pruning disabled.
  int pruned_off = 0;
  for (const auto& rr : off.regions) pruned_off += rr.pruned;
  EXPECT_EQ(pruned_off, 0);
}

TEST(Prune, PrunedRunsAreASubsetOfDeadCorrectRuns) {
  const apps::App app = tiny_wavetoy();
  CampaignConfig cfg = base_config();
  cfg.prune = PruneLevel::kFull;
  const CampaignResult res = run_campaign(app, cfg);
  for (const auto& rr : res.regions) {
    // Every pruned run is a dead-tagged Correct run.
    EXPECT_LE(rr.pruned,
              rr.act_counts[RegionResult::kDeadIdx]
                           [static_cast<unsigned>(Manifestation::kCorrect)])
        << region_name(rr.region);
    // Soundness: dead-tagged injections never manifest, in any region.
    const auto& dead = rr.act_counts[RegionResult::kDeadIdx];
    for (unsigned m = 1; m < kNumManifestations; ++m)
      EXPECT_EQ(dead[m], 0)
          << region_name(rr.region) << " "
          << manifestation_name(static_cast<Manifestation>(m));
  }
}

TEST(Prune, ParallelAggregatesMatchSerialWithFullPruning) {
  const apps::App app = tiny_wavetoy();
  CampaignConfig cfg = base_config();
  cfg.prune = PruneLevel::kFull;

  ExecPolicy exec;
  exec.jobs = 1;
  const CampaignResult serial = run_campaign(app, cfg, exec);
  exec.jobs = 8;
  const CampaignResult parallel = run_campaign(app, cfg, exec);

  expect_same_aggregates(serial, parallel);
  int ps = 0, pp = 0;
  for (const auto& rr : serial.regions) ps += rr.pruned;
  for (const auto& rr : parallel.regions) pp += rr.pruned;
  EXPECT_EQ(ps, pp);
}

TEST(Prune, LevelParsingRoundTrips) {
  EXPECT_EQ(parse_prune_level("off"), PruneLevel::kOff);
  EXPECT_EQ(parse_prune_level("full"), PruneLevel::kFull);
  // One spelling per level: the two-level era's booleans and the retired
  // integer-registers-only "regs" level are refused.
  for (const char* legacy :
       {"on", "true", "false", "regs", "half", "Full", ""})
    EXPECT_FALSE(parse_prune_level(legacy).has_value()) << legacy;
  for (const auto level : {PruneLevel::kOff, PruneLevel::kFull})
    EXPECT_EQ(parse_prune_level(prune_level_name(level)), level);
}

}  // namespace
}  // namespace fsim::core
