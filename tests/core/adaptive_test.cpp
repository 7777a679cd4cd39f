// Adaptive stratified sampling: the wave scheduler must stop every cell
// with its interval at or under the target (or at its cap), replay bit for
// bit at any job count, equal the fixed-n prefix of the same grid, shard
// by cell and merge back exactly, and checkpoint/resume to the
// uninterrupted result.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/adaptive.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "core/reshard.hpp"
#include "core/sampling.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

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

apps::App tiny_minimd() {
  apps::MinimdConfig cfg;
  cfg.ranks = 4;
  cfg.atoms = 6;
  cfg.steps = 4;
  cfg.cold_functions = 10;
  cfg.cold_heap_bytes = 2048;
  return apps::make_minimd(cfg);
}

/// Two campaigns, caps sized so some cells meet the (deliberately loose)
/// test target early while high-variance ones run to the cap.
std::vector<BatchEntry> two_campaign_batch(int cap0 = 60, int cap1 = 40) {
  std::vector<BatchEntry> entries(2);
  entries[0].app = tiny_wavetoy();
  entries[0].config.runs_per_region = cap0;
  entries[0].config.seed = 0xabc;
  entries[0].config.regions = {Region::kRegularReg, Region::kData,
                               Region::kMessage};
  entries[1].app = tiny_minimd();
  entries[1].config.runs_per_region = cap1;
  entries[1].config.seed = 0x123;
  entries[1].config.regions = {Region::kRegularReg, Region::kMessage};
  return entries;
}

AdaptivePolicy loose_policy() {
  AdaptivePolicy p;
  p.ci = 0.1;  // ±10 pts: low-variance cells stop at the 30-run clamp
  p.wave = 10;
  return p;
}

std::string scratch(const std::string& name) {
  return "adaptive_test_" + name + ".json";
}

AdaptiveResult run(const std::vector<BatchEntry>& entries, int jobs,
                   const std::string& checkpoint_path = {},
                   const Checkpoint* resume = nullptr,
                   ShardSpec shard = {}) {
  AdaptiveConfig ac;
  ac.policy = loose_policy();
  ac.jobs = jobs;
  ac.shard = shard;
  ac.checkpoint_path = checkpoint_path;
  ac.checkpoint_every = 1;
  ac.resume = resume;
  return run_adaptive(entries, ac);
}

TEST(Adaptive, EveryCellStopsWithItsIntervalOrAtTheCap) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const AdaptiveResult res = run(entries, 4);
  ASSERT_EQ(res.cells.size(), 5u);
  std::uint64_t scheduled = 0;
  std::size_t slot = 0;
  for (std::size_t c = 0; c < res.batch.campaigns.size(); ++c) {
    const int cap = entries[c].config.runs_per_region;
    for (const auto& rr : res.batch.campaigns[c].regions) {
      const CellStatus& cell = res.cells[slot++];
      EXPECT_TRUE(cell.owned);
      EXPECT_NE(cell.stop, CellStop::kOpen);
      // The scheduler never leaves committed points unexecuted.
      EXPECT_EQ(rr.executions, cell.scheduled);
      EXPECT_LE(cell.scheduled, cap);
      scheduled += static_cast<std::uint64_t>(cell.scheduled);
      if (cell.stop == CellStop::kTarget) {
        EXPECT_GE(rr.executions, res.policy.min_runs);
        EXPECT_LE(cell.half_width, res.policy.ci);
        EXPECT_NEAR(cell.half_width,
                    wilson_half_width(
                        res.policy.alpha,
                        static_cast<std::uint64_t>(rr.errors()),
                        static_cast<std::uint64_t>(rr.executions)),
                    1e-12);
      } else {
        EXPECT_EQ(cell.scheduled, cap);
      }
    }
  }
  EXPECT_EQ(res.total_runs, scheduled);
  // The loose target must actually save runs over fixed-n on this grid.
  EXPECT_LT(res.total_runs, static_cast<std::uint64_t>(60 * 3 + 40 * 2));
}

TEST(Adaptive, BitIdenticalAcrossJobCounts) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const AdaptiveResult serial = run(entries, 1);
  const AdaptiveResult pooled = run(entries, 8);
  EXPECT_EQ(adaptive_json(serial), adaptive_json(pooled));
}

TEST(Adaptive, CountsEqualTheFixedNPrefixOfTheSameGrid) {
  // One-region campaign: the adaptive run must produce exactly the counts
  // of a fixed-n campaign sized to wherever the cell stopped — waves are a
  // prefix extension of the same enumeration, not a different sample.
  std::vector<BatchEntry> entries(1);
  entries[0].app = tiny_wavetoy();
  entries[0].config.runs_per_region = 60;
  entries[0].config.seed = 0xabc;
  entries[0].config.regions = {Region::kMessage};
  const AdaptiveResult adaptive = run(entries, 4);
  ASSERT_EQ(adaptive.cells.size(), 1u);

  std::vector<BatchEntry> fixed = entries;
  fixed[0].config.runs_per_region = adaptive.cells[0].scheduled;
  BatchConfig bc;
  bc.jobs = 4;
  const BatchResult ref = run_batch(fixed, bc);
  EXPECT_EQ(aggregate_digest(adaptive.batch.campaigns[0]),
            aggregate_digest(ref.campaigns[0]));
}

TEST(Adaptive, JsonStaysABackwardParseableBatchDocument) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const AdaptiveResult res = run(entries, 2);
  const std::string text = adaptive_json(res);
  EXPECT_NE(text.find("\"adaptive\""), std::string::npos);
  // A pre-adaptive consumer reads it as a plain v2 result — the annex is
  // an unknown key — whose digest covers the same counts.
  const util::JsonValue doc = util::parse_json(text);
  EXPECT_EQ(doc.at("kind").as_string(), "result");
  EXPECT_EQ(doc.at("digest").as_u64(), batch_digest(res.batch));
  const auto& campaigns = doc.at("campaigns").items();
  ASSERT_EQ(campaigns.size(), res.batch.specs.size());
  for (std::size_t c = 0; c < campaigns.size(); ++c)
    EXPECT_EQ(read_campaign_spec(campaigns[c].at("spec")),
              res.batch.specs[c]);
}

TEST(Adaptive, CellShardingPartitionsTheGridAndMergesBack) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const AdaptiveResult whole = run(entries, 4);
  const AdaptiveResult s0 = run(entries, 4, {}, nullptr, ShardSpec{0, 2});
  const AdaptiveResult s1 = run(entries, 4, {}, nullptr, ShardSpec{1, 2});
  // Each cell ran in exactly one shard, with the unsharded schedule.
  for (std::size_t s = 0; s < whole.cells.size(); ++s) {
    const CellStatus& a = s0.cells[s];
    const CellStatus& b = s1.cells[s];
    EXPECT_NE(a.owned, b.owned) << s;
    const CellStatus& owned = a.owned ? a : b;
    const CellStatus& other = a.owned ? b : a;
    EXPECT_EQ(owned.scheduled, whole.cells[s].scheduled) << s;
    EXPECT_EQ(owned.stop, whole.cells[s].stop) << s;
    EXPECT_EQ(other.scheduled, 0) << s;
  }
  // `fsim merge`: each shard's finished checkpoint, serialized and parsed
  // back, folds into a whole-grid master; every cell takes its frontier
  // and stop flag from the one shard that holds it.
  const Checkpoint c0 = parse_checkpoint_json(
      checkpoint_json(batch_to_checkpoint(s0.batch, s0.policy)));
  const Checkpoint c1 = parse_checkpoint_json(
      checkpoint_json(batch_to_checkpoint(s1.batch, s1.policy)));
  EXPECT_TRUE(c0.complete());
  EXPECT_TRUE(c1.complete());
  Checkpoint master = make_checkpoint(c0.specs, c0.goldens, ShardSpec{});
  master.adaptive = c0.adaptive;
  fold_checkpoint(master, c1);
  EXPECT_FALSE(master.complete());  // shard 0's cells are still open
  fold_checkpoint(master, c0);
  EXPECT_TRUE(master.complete());
  for (std::size_t s = 0; s < whole.cells.size(); ++s)
    EXPECT_EQ(master.slots[s].frontier, whole.cells[s].scheduled) << s;
  EXPECT_EQ(batch_json(checkpoint_to_batch(master)), batch_json(whole.batch));

  // Duplicate and mismatched shards are refused, atomically.
  const std::string before = checkpoint_json(master);
  EXPECT_THROW(fold_checkpoint(master, c0), util::SetupError);
  Checkpoint other = c1;
  other.adaptive->wave += 1;  // same cells, different stopping rule
  Checkpoint fresh = make_checkpoint(c0.specs, c0.goldens, ShardSpec{});
  fresh.adaptive = c0.adaptive;
  fold_checkpoint(fresh, c0);
  EXPECT_THROW(fold_checkpoint(fresh, other), util::SetupError);
  EXPECT_EQ(checkpoint_json(master), before);
}

TEST(Adaptive, CellShardOutputEqualsItsSidecar) {
  // An adaptive cell shard's default output is its final sidecar, byte
  // for byte: owned cells done over their frontier and stopped.
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string path = scratch("shard_sidecar");
  const AdaptiveResult res = run(entries, 4, path, nullptr, ShardSpec{0, 2});
  EXPECT_EQ(checkpoint_json(batch_to_checkpoint(res.batch, res.policy)) + "\n",
            util::read_file(path));
  std::remove(path.c_str());
}

TEST(Adaptive, FinishedRunLeavesACompleteAdaptiveCheckpoint) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string path = scratch("complete");
  const AdaptiveResult mono = run(entries, 2, path);
  const Checkpoint ck = parse_checkpoint_json(util::read_file(path));
  ASSERT_TRUE(ck.adaptive.has_value());
  EXPECT_EQ(*ck.adaptive, loose_policy());
  EXPECT_TRUE(ck.complete());
  for (std::size_t s = 0; s < ck.slots.size(); ++s) {
    EXPECT_TRUE(ck.slots[s].stopped) << s;
    EXPECT_EQ(ck.slots[s].frontier, mono.cells[s].scheduled) << s;
    EXPECT_EQ(ck.slots[s].done.size(), ck.slots[s].frontier) << s;
  }
  // Byte-stable through a round trip, digests verified on the way in.
  const std::string text = checkpoint_json(ck);
  EXPECT_EQ(checkpoint_json(parse_checkpoint_json(text)), text);

  // Resuming the complete checkpoint is a no-op with identical output.
  const AdaptiveResult resumed = run(entries, 8, {}, &ck);
  EXPECT_EQ(adaptive_json(resumed), adaptive_json(mono));
  std::remove(path.c_str());
}

TEST(Adaptive, PartialCheckpointResumesToTheUninterruptedResult) {
  // Mid-flight snapshot built by capping the same grid at a wave boundary
  // (20 = 2 waves) and widening the specs back — run identity is (seed,
  // region, index), so the shortened run's counts are exactly the
  // uninterrupted run's counts at that boundary.
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const AdaptiveResult mono = run(entries, 4);

  const std::string path = scratch("partial");
  const std::vector<BatchEntry> shortened = two_campaign_batch(20, 20);
  (void)run(shortened, 2, path);
  Checkpoint ck = parse_checkpoint_json(util::read_file(path));
  for (std::size_t c = 0; c < ck.specs.size(); ++c)
    ck.specs[c].runs_per_region = entries[c].config.runs_per_region;

  for (int jobs : {1, 8}) {
    const AdaptiveResult resumed = run(entries, jobs, {}, &ck);
    EXPECT_EQ(adaptive_json(resumed), adaptive_json(mono)) << jobs;
  }
  std::remove(path.c_str());
}

TEST(Adaptive, FixedNAndAdaptiveCheckpointsDoNotCrossResume) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string fixed_path = scratch("fixed");
  const std::string adaptive_path = scratch("adaptive");
  BatchConfig bc;
  bc.jobs = 2;
  bc.checkpoint_path = fixed_path;
  (void)run_batch(entries, bc);
  (void)run(entries, 2, adaptive_path);
  const Checkpoint fixed_ck =
      parse_checkpoint_json(util::read_file(fixed_path));
  Checkpoint adaptive_ck =
      parse_checkpoint_json(util::read_file(adaptive_path));

  EXPECT_THROW(run(entries, 2, {}, &fixed_ck), util::SetupError);
  BatchConfig resume_bc;
  resume_bc.resume = &adaptive_ck;
  EXPECT_THROW(run_batch(entries, resume_bc), util::SetupError);
  std::remove(fixed_path.c_str());
  std::remove(adaptive_path.c_str());
}

TEST(Adaptive, RejectsOutOfRangePoliciesAndShards) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  AdaptiveConfig ac;
  ac.policy.ci = 0.0;
  EXPECT_THROW(run_adaptive(entries, ac), util::SetupError);
  ac.policy = AdaptivePolicy{};
  ac.policy.alpha = 1.0;
  EXPECT_THROW(run_adaptive(entries, ac), util::SetupError);
  ac.policy = AdaptivePolicy{};
  ac.policy.wave = 0;
  EXPECT_THROW(run_adaptive(entries, ac), util::SetupError);
  ac.policy = AdaptivePolicy{};
  ac.shard = ShardSpec{2, 2};
  EXPECT_THROW(run_adaptive(entries, ac), util::SetupError);
}

}  // namespace
}  // namespace fsim::core
