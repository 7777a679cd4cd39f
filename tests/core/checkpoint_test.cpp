// Crash-tolerant campaigns: checkpoint serialization must round-trip and
// refuse corruption and forged done sets, resuming a half-finished shard
// must reproduce the uninterrupted aggregates bit for bit at any job
// count, identity mismatches must be refused with precise errors, a
// finished shard's output must equal its sidecar, and `fsim merge` folds
// any mixture of them.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/adaptive.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "core/reshard.hpp"
#include "util/file.hpp"
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

std::vector<BatchEntry> two_campaign_batch() {
  std::vector<BatchEntry> entries(2);
  entries[0].app = tiny_wavetoy();
  entries[0].config.runs_per_region = 10;
  entries[0].config.seed = 0xabc;
  entries[0].config.regions = {Region::kRegularReg, Region::kData,
                               Region::kMessage};
  entries[1].app = tiny_minimd();
  entries[1].config.runs_per_region = 8;
  entries[1].config.seed = 0x123;
  entries[1].config.regions = {Region::kRegularReg, Region::kMessage};
  return entries;
}

/// Scratch sidecar path unique per test (ctest runs us in the build tree).
std::string scratch(const std::string& name) {
  return "checkpoint_test_" + name + ".json";
}

/// Run the batch streaming a checkpoint, return the final sidecar state.
Checkpoint run_with_checkpoint(const std::vector<BatchEntry>& entries,
                               const std::string& path, int jobs,
                               int every = 1,
                               CheckpointEncoding enc =
                                   CheckpointEncoding::kJson) {
  BatchConfig bc;
  bc.jobs = jobs;
  bc.checkpoint_path = path;
  bc.checkpoint_every = every;
  bc.checkpoint_encoding = enc;
  (void)run_batch(entries, bc);
  return parse_checkpoint_json(util::read_file(path));
}

/// A mid-flight checkpoint of `entries`, covering only the first
/// `done_runs[c]` run indices of every region of campaign c. Built by
/// checkpointing a shortened batch and then widening the specs back to the
/// full grid — valid because a run's identity is (campaign seed, region,
/// index), independent of runs_per_region.
Checkpoint partial_checkpoint(const std::vector<BatchEntry>& entries,
                              const std::vector<int>& done_runs,
                              const std::string& path) {
  std::vector<BatchEntry> shortened = entries;
  for (std::size_t c = 0; c < shortened.size(); ++c)
    shortened[c].config.runs_per_region = done_runs[c];
  Checkpoint ck = run_with_checkpoint(shortened, path, /*jobs=*/2);
  for (std::size_t c = 0; c < ck.specs.size(); ++c)
    ck.specs[c].runs_per_region = entries[c].config.runs_per_region;
  return ck;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    const RegionResult& ra = a.regions[i];
    const RegionResult& rb = b.regions[i];
    EXPECT_EQ(ra.region, rb.region);
    EXPECT_EQ(ra.executions, rb.executions);
    EXPECT_EQ(ra.skipped, rb.skipped);
    EXPECT_EQ(ra.counts, rb.counts);
    EXPECT_EQ(ra.crash_kinds, rb.crash_kinds);
    EXPECT_EQ(ra.pruned, rb.pruned);
    EXPECT_EQ(ra.act_executions, rb.act_executions);
    EXPECT_EQ(ra.act_counts, rb.act_counts);
  }
  EXPECT_EQ(aggregate_digest(a), aggregate_digest(b));
}

TEST(RunSet, InsertCoalescesAndAnswersContains) {
  RunSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0);
  for (int i : {5, 3, 4, 9, 0, 1}) set.insert(i);
  // {0,1}, {3,4,5}, {9}
  ASSERT_EQ(set.ranges().size(), 3u);
  EXPECT_EQ(set.size(), 6);
  for (int i : {0, 1, 3, 4, 5, 9}) EXPECT_TRUE(set.contains(i)) << i;
  for (int i : {2, 6, 8, 10}) EXPECT_FALSE(set.contains(i)) << i;
  set.insert(2);  // bridges {0,1} and {3,4,5}
  ASSERT_EQ(set.ranges().size(), 2u);
  EXPECT_EQ(set.ranges()[0], (std::pair<int, int>{0, 5}));
  set.insert(4);  // idempotent
  EXPECT_EQ(set.size(), 7);
}

TEST(RunSet, AppendRangeRejectsDisorder) {
  RunSet set;
  set.append_range(0, 3);
  set.append_range(5, 5);
  EXPECT_EQ(set.size(), 5);
  EXPECT_THROW(set.append_range(4, 4), util::SetupError);  // adjacent
  EXPECT_THROW(set.append_range(2, 9), util::SetupError);  // overlap
  RunSet bad;
  EXPECT_THROW(bad.append_range(3, 2), util::SetupError);
  EXPECT_THROW(bad.append_range(-1, 2), util::SetupError);
}

TEST(Checkpoint, FinishedShardLeavesACompleteCheckpointThatRoundTrips) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string path = scratch("roundtrip");
  const Checkpoint ck = run_with_checkpoint(entries, path, /*jobs=*/4,
                                            /*every=*/16);
  EXPECT_TRUE(ck.complete());
  EXPECT_EQ(ck.completed_runs(), ck.owned_runs());
  EXPECT_EQ(ck.completed_runs(), 10 * 3 + 8 * 2);
  ASSERT_EQ(ck.slots.size(), 5u);
  for (const auto& slot : ck.slots)
    EXPECT_EQ(slot.counts.executions, slot.done.size());

  // Byte-stable and digest-verified through a second round trip.
  const std::string text = checkpoint_json(ck);
  const Checkpoint again = parse_checkpoint_json(text);
  EXPECT_EQ(checkpoint_json(again), text);
  EXPECT_EQ(again.specs, ck.specs);
  for (std::size_t s = 0; s < ck.slots.size(); ++s)
    EXPECT_EQ(again.slots[s].done, ck.slots[s].done);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptedOrForeignDocumentsAreRefused) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string path = scratch("corrupt");
  const Checkpoint ck = run_with_checkpoint(entries, path, /*jobs=*/2);
  const std::string text = checkpoint_json(ck);

  // Flip one aggregate count without fixing the digests.
  const auto pos = text.find("\"executions\":");
  ASSERT_NE(pos, std::string::npos);
  std::string tampered = text;
  tampered[pos + 14] = tampered[pos + 14] == '9' ? '8' : '9';
  EXPECT_THROW(parse_checkpoint_json(tampered), util::SetupError);

  // A result document is not a checkpoint.
  BatchConfig bc;
  const BatchResult res = run_batch(entries, bc);
  EXPECT_THROW(parse_checkpoint_json(batch_json(res)), util::SetupError);
  EXPECT_THROW(parse_checkpoint_json("not json"), util::SetupError);

  // A spec listing a region twice, digests intact.
  CampaignSpec dup = ck.specs.front();
  dup.regions = {Region::kMessage, Region::kMessage};
  EXPECT_THROW(parse_checkpoint_json(checkpoint_json(make_checkpoint(
                   {dup}, {ck.goldens.front()}, ShardSpec{}))),
               util::SetupError);
  std::remove(path.c_str());
}

TEST(Checkpoint, SinkRejectsNonPositiveInterval) {
  EXPECT_THROW(
      CheckpointSink("x.json", 0, make_checkpoint({}, {}, ShardSpec{})),
      util::SetupError);
}

TEST(Resume, ReproducesTheUninterruptedAggregatesAtAnyJobCount) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  BatchConfig mono;
  mono.jobs = 4;
  const BatchResult whole = run_batch(entries, mono);

  const std::string path = scratch("resume");
  const Checkpoint ck = partial_checkpoint(entries, {6, 5}, path);
  EXPECT_FALSE(ck.complete());
  EXPECT_EQ(ck.completed_runs(), 6 * 3 + 5 * 2);

  for (int jobs : {1, 8}) {
    BatchConfig bc;
    bc.jobs = jobs;
    bc.resume = &ck;
    const BatchResult resumed = run_batch(entries, bc);
    ASSERT_EQ(resumed.campaigns.size(), whole.campaigns.size());
    for (std::size_t c = 0; c < whole.campaigns.size(); ++c)
      expect_identical(resumed.campaigns[c], whole.campaigns[c]);
    EXPECT_EQ(batch_digest(resumed), batch_digest(whole));
    // The merged artefact is byte-identical, derived columns and all.
    EXPECT_EQ(batch_json(resumed), batch_json(whole));
  }
  std::remove(path.c_str());
}

TEST(Resume, CompleteCheckpointIsANoOpResume) {
  // A run without a sidecar and the final sidecar of the same batch
  // written after every run or every 64 runs hold the same aggregates.
  const std::vector<BatchEntry> entries = two_campaign_batch();
  BatchConfig mono;
  mono.jobs = 2;
  const BatchResult whole = run_batch(entries, mono);

  const std::string path = scratch("noop");
  for (int every : {1, 64}) {
    const Checkpoint ck = run_with_checkpoint(entries, path, /*jobs=*/2,
                                              every);
    ASSERT_TRUE(ck.complete()) << every;
    BatchConfig bc;
    bc.jobs = 2;
    bc.resume = &ck;
    const BatchResult resumed = run_batch(entries, bc);
    EXPECT_EQ(batch_json(resumed), batch_json(whole)) << every;
  }
  std::remove(path.c_str());
}

TEST(Resume, RefusesMismatchedIdentity) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string path = scratch("identity");
  Checkpoint ck = partial_checkpoint(entries, {6, 5}, path);

  {  // Different campaign seed: a different batch.
    std::vector<BatchEntry> other = entries;
    other[0].config.seed ^= 1;
    BatchConfig bc;
    bc.resume = &ck;
    EXPECT_THROW(run_batch(other, bc), util::SetupError);
  }
  {  // Different app params: a different linked image.
    std::vector<BatchEntry> other = entries;
    other[1].params.steps = 3;
    BatchConfig bc;
    bc.resume = &ck;
    EXPECT_THROW(run_batch(other, bc), util::SetupError);
  }
  {  // Checkpoint covers a different shard than the batch runs.
    BatchConfig bc;
    bc.resume = &ck;
    bc.shard = ShardSpec{0, 2};
    EXPECT_THROW(run_batch(entries, bc), util::SetupError);
  }
  {  // Tampered golden identity.
    Checkpoint bad = ck;
    bad.goldens[0].instructions ^= 1;
    BatchConfig bc;
    bc.resume = &bad;
    EXPECT_THROW(run_batch(entries, bc), util::SetupError);
  }
  {  // Tampered golden traffic: rx bytes are golden identity too.
    Checkpoint bad = ck;
    ASSERT_FALSE(bad.goldens[1].rx_bytes.empty());
    bad.goldens[1].rx_bytes[0] ^= 1;
    BatchConfig bc;
    bc.resume = &bad;
    EXPECT_THROW(run_batch(entries, bc), util::SetupError);
  }
  std::remove(path.c_str());
}

TEST(Merge, AcceptsMixedShardsAndCheckpoints) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  BatchConfig mono;
  mono.jobs = 2;
  const BatchResult whole = run_batch(entries, mono);

  // Shard 0 leaves its binary sidecar behind; shard 1 only writes its
  // default output, the finished checkpoint. Folding the mixture, in
  // either order, reproduces the whole.
  const std::string path = scratch("merge");
  BatchConfig s0;
  s0.jobs = 2;
  s0.shard = ShardSpec{0, 2};
  s0.checkpoint_path = path;
  s0.checkpoint_encoding = CheckpointEncoding::kBinary;
  (void)run_batch(entries, s0);
  BatchConfig s1;
  s1.jobs = 2;
  s1.shard = ShardSpec{1, 2};
  const BatchResult part1 = run_batch(entries, s1);

  const Checkpoint in0 = parse_checkpoint_json(util::read_file(path));
  const Checkpoint in1 =
      parse_checkpoint_json(checkpoint_json(batch_to_checkpoint(part1)));
  EXPECT_TRUE(in0.complete());
  EXPECT_TRUE(in1.complete());
  for (const bool zero_first : {true, false}) {
    Checkpoint master = make_checkpoint(in0.specs, in0.goldens, ShardSpec{});
    fold_checkpoint(master, zero_first ? in0 : in1);
    EXPECT_FALSE(master.complete());
    fold_checkpoint(master, zero_first ? in1 : in0);
    EXPECT_TRUE(master.complete());
    EXPECT_EQ(batch_json(checkpoint_to_batch(master)), batch_json(whole));
  }
  std::remove(path.c_str());
}

TEST(Merge, IncompleteCheckpointIsFlaggedAndFoldsPartialCounts) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string path = scratch("partial");
  const Checkpoint ck = partial_checkpoint(entries, {6, 5}, path);
  const Checkpoint in = parse_checkpoint_json(checkpoint_json(ck));
  EXPECT_FALSE(in.complete());
  EXPECT_EQ(in.completed_runs(), 6 * 3 + 5 * 2);
  EXPECT_EQ(in.owned_runs(), 10 * 3 + 8 * 2);

  // Folded anyway (what --partial-report does), the master holds exactly
  // the checkpointed partial counts and stays incomplete.
  Checkpoint master = make_checkpoint(in.specs, in.goldens, ShardSpec{});
  fold_checkpoint(master, in);
  EXPECT_FALSE(master.complete());
  int total = 0;
  for (const auto& campaign : checkpoint_to_batch(master).campaigns)
    for (const auto& rr : campaign.regions) total += rr.executions;
  EXPECT_EQ(total, 6 * 3 + 5 * 2);
  std::remove(path.c_str());
}

TEST(Observer, HooksFireSerializedAndCountEveryRun) {
  struct Counter : CampaignObserver {
    int runs = 0, regions = 0, checkpoints = 0, max_done = 0;
    void on_run_done(const RunEvent& ev) override {
      ++runs;
      max_done = std::max(max_done, ev.done);
      ASSERT_NE(ev.outcome, nullptr);
      ASSERT_NE(ev.app, nullptr);
    }
    void on_region_done(std::size_t, const std::string&, Region,
                        int) override {
      ++regions;
    }
    void on_checkpoint(const std::string&, int) override { ++checkpoints; }
  };
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string path = scratch("observer");
  Counter counter;
  BatchConfig bc;
  bc.jobs = 4;
  bc.observer = &counter;
  bc.checkpoint_path = path;
  bc.checkpoint_every = 8;
  (void)run_batch(entries, bc);
  EXPECT_EQ(counter.runs, 10 * 3 + 8 * 2);
  EXPECT_EQ(counter.regions, 5);
  // ceil(46 / 8) periodic writes plus the final flush.
  EXPECT_GE(counter.checkpoints, 46 / 8);
  EXPECT_EQ(counter.max_done, 10);
  std::remove(path.c_str());
}

TEST(Format, V2SpecFilesCarryAppParams) {
  const std::string spec = R"({
    "format": "fsim-batch-v2",
    "runs": 8, "seed": 5, "ranks": 4,
    "campaigns": [
      {"app": "wavetoy", "steps": 8},
      {"app": "minimd", "ranks": 2}
    ]})";
  const std::vector<CampaignSpec> specs = parse_batch_spec(spec);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].params.ranks, 4);  // top-level default
  EXPECT_EQ(specs[0].params.steps, 8);
  EXPECT_EQ(specs[1].params.ranks, 2);  // per-campaign override
  EXPECT_EQ(specs[1].params.steps, 0);

  // Specs without a format (the retired v1) and unknown formats are refused.
  EXPECT_THROW(
      parse_batch_spec(R"({"campaigns": [{"app": "wavetoy", "ranks": 4}]})"),
      util::SetupError);
  EXPECT_THROW(parse_batch_spec(
                   R"({"format": "fsim-batch-v9", "campaigns": []})"),
               util::SetupError);

  // Params flow into the linked app and are refused when out of range.
  EXPECT_EQ(apps::make_app("wavetoy", {4, 8}).world.nranks, 4);
  EXPECT_THROW(apps::make_app("wavetoy", {65, 0}), util::SetupError);
  EXPECT_THROW(apps::make_app("minimd", {0, -1}), util::SetupError);
}

TEST(Encoding, BinaryCheckpointRoundTripsByteIdentically) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string path = scratch("binenc");
  const Checkpoint ck = run_with_checkpoint(entries, path, /*jobs=*/2);

  const std::string bin =
      checkpoint_serialize(ck, CheckpointEncoding::kBinary);
  EXPECT_NE(bin.find("\"encoding\":\"fnv-bin-v1\""), std::string::npos);
  EXPECT_LT(bin.size(), checkpoint_json(ck).size());  // it had better pay off

  // Decode → JSON equals the straight JSON encoding; re-encode is stable.
  const Checkpoint back = parse_checkpoint_json(bin);
  EXPECT_EQ(checkpoint_json(back), checkpoint_json(ck));
  EXPECT_EQ(checkpoint_serialize(back, CheckpointEncoding::kBinary), bin);

  // Corrupting the payload (or its digest) is detected.
  const auto data = bin.find("\"data\":\"");
  ASSERT_NE(data, std::string::npos);
  std::string tampered = bin;
  const std::size_t flip = data + 12;
  tampered[flip] = tampered[flip] == 'A' ? 'B' : 'A';
  EXPECT_THROW(parse_checkpoint_json(tampered), util::SetupError);
  std::remove(path.c_str());
}

TEST(Encoding, SinkWritesBinarySidecarsThatResumeIdentically) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  BatchConfig mono;
  mono.jobs = 2;
  const BatchResult whole = run_batch(entries, mono);

  // A mid-flight checkpoint in both encodings (same completed prefix).
  const std::string path = scratch("bin_resume");
  Checkpoint partial = partial_checkpoint(entries, {6, 5}, path);
  const std::string as_json =
      checkpoint_serialize(partial, CheckpointEncoding::kJson);
  const std::string as_bin =
      checkpoint_serialize(partial, CheckpointEncoding::kBinary);

  // Resuming from either encoding reproduces the monolithic bytes.
  for (const std::string& text : {as_json, as_bin}) {
    Checkpoint ck = parse_checkpoint_json(text);
    BatchConfig bc;
    bc.jobs = 2;
    bc.resume = &ck;
    EXPECT_EQ(batch_json(run_batch(entries, bc)), batch_json(whole));
  }

  // And the sink itself round-trips when asked to write binary: the final
  // sidecar of a finished run parses back to the JSON-encoded state.
  const std::string bpath = scratch("bin_sink");
  const Checkpoint bin_ck =
      run_with_checkpoint(entries, bpath, /*jobs=*/2, /*every=*/4,
                          CheckpointEncoding::kBinary);
  EXPECT_NE(util::read_file(bpath).find("fnv-bin-v1"), std::string::npos);
  EXPECT_TRUE(bin_ck.complete());
  EXPECT_EQ(checkpoint_json(bin_ck),
            checkpoint_json(run_with_checkpoint(entries, path, 2)));
  std::remove(path.c_str());
  std::remove(bpath.c_str());
}

TEST(Reshard, TakeFrontCarvesDisjointCoversOfTheRemainder) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string path = scratch("carve");
  const Checkpoint full = run_with_checkpoint(entries, path, /*jobs=*/2);

  Checkpoint master = make_checkpoint(
      full.specs, std::vector<Golden>(full.specs.size()), ShardSpec{});
  GridSelection pending = remaining_selection(master);
  EXPECT_EQ(pending.total(), 46u);  // 10*3 + 8*2

  GridSelection a = take_front(pending, 20);
  EXPECT_EQ(a.total(), 20u);
  EXPECT_EQ(pending.total(), 26u);
  GridSelection b = take_front(pending, 100);  // clamped to what is left
  EXPECT_EQ(b.total(), 26u);
  EXPECT_TRUE(pending.empty());
  EXPECT_TRUE(take_front(pending, 5).empty());

  // Disjoint: no run index appears in both selections.
  for (std::size_t s = 0; s < a.slots.size(); ++s)
    for (const auto& [first, last] : a.slots[s].ranges())
      for (int i = first; i <= last; ++i)
        EXPECT_FALSE(b.slots[s].contains(i)) << s << ":" << i;
  std::remove(path.c_str());
}

TEST(Reshard, FoldedSelectionsReproduceTheMonolithicBatch) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  BatchConfig mono;
  mono.jobs = 2;
  const BatchResult whole = run_batch(entries, mono);

  const std::string path = scratch("fold_specs");
  const Checkpoint full = run_with_checkpoint(entries, path, /*jobs=*/2);
  Checkpoint master = make_checkpoint(
      full.specs, std::vector<Golden>(full.specs.size()), ShardSpec{});
  GridSelection pending = remaining_selection(master);
  const GridSelection first = take_front(pending, 19);

  // Execute the two selections exactly as service workers would.
  const std::string pa = scratch("fold_a");
  const std::string pb = scratch("fold_b");
  BatchConfig bc;
  bc.jobs = 2;
  bc.checkpoint_every = 16;
  bc.selection = &first;
  bc.checkpoint_path = pa;
  (void)run_batch(entries, bc);
  bc.selection = &pending;
  bc.checkpoint_path = pb;
  (void)run_batch(entries, bc);

  const Checkpoint side_a = parse_checkpoint_json(util::read_file(pa));
  const Checkpoint side_b = parse_checkpoint_json(util::read_file(pb));
  fold_checkpoint(master, side_a);
  EXPECT_FALSE(master.complete());
  // Folding the same delta twice is refused atomically.
  EXPECT_THROW(fold_checkpoint(master, side_a), util::SetupError);
  fold_checkpoint(master, side_b);
  EXPECT_TRUE(master.complete());
  EXPECT_EQ(batch_json(checkpoint_to_batch(master)), batch_json(whole));
  std::remove(path.c_str());
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(Reshard, SelectionRunsAlone) {
  // A selection already names exactly the points to run: combining it
  // with a shard or a resume baseline is refused before any preparation.
  const std::vector<BatchEntry> entries = two_campaign_batch();
  std::vector<CampaignSpec> specs;
  for (const BatchEntry& e : entries)
    specs.push_back(spec_of(e.app.name, e.config));
  const GridSelection sel = shard_selection(specs, ShardSpec{});
  const Checkpoint ck =
      make_checkpoint(specs, std::vector<Golden>(specs.size()), ShardSpec{});
  BatchConfig sharded;
  sharded.selection = &sel;
  sharded.shard = ShardSpec{1, 2};
  EXPECT_THROW(run_batch(entries, sharded), util::SetupError);
  BatchConfig resumed;
  resumed.selection = &sel;
  resumed.resume = &ck;
  EXPECT_THROW(run_batch(entries, resumed), util::SetupError);
}

TEST(Checkpoint, PartialShardCountsAgreeEverywhere) {
  // Partial shard checkpoints: owned_runs, complete, the status rows and
  // remaining_selection all derive from the committed grid, and must agree
  // with one another and with a brute-force count. First a fixed-n
  // shard 2/3, against a walk of shard_owns.
  std::vector<CampaignSpec> specs(2);
  specs[0].app = "wavetoy";
  specs[0].runs_per_region = 10;
  specs[0].regions = {Region::kRegularReg, Region::kData, Region::kMessage};
  specs[1].app = "minimd";
  specs[1].runs_per_region = 7;
  specs[1].regions = {Region::kRegularReg, Region::kMessage};
  const ShardSpec shard{2, 3};
  Checkpoint ck =
      make_checkpoint(specs, std::vector<Golden>(specs.size()), shard);

  // Brute force: walk the grid, count owned points per slot and mark the
  // first two of every slot done.
  std::vector<int> owned(ck.slots.size(), 0);
  std::uint64_t g = 0;
  std::size_t slot = 0;
  for (const CampaignSpec& spec : specs) {
    for (std::size_t ri = 0; ri < spec.regions.size(); ++ri, ++slot) {
      for (int i = 0; i < spec.runs_per_region; ++i, ++g) {
        if (!shard_owns(g, shard)) continue;
        if (++owned[slot] > 2) continue;
        ck.slots[slot].done.insert(i);
        ++ck.slots[slot].counts.executions;
      }
    }
  }
  int brute = 0;
  for (int n : owned) brute += n;
  ASSERT_EQ(brute, 14);  // grid points 2, 5, ..., 41 of 0..43

  EXPECT_EQ(ck.owned_runs(), brute);
  EXPECT_EQ(ck.completed_runs(), 2 * 5);
  EXPECT_FALSE(ck.complete());
  const CheckpointStatus st = checkpoint_status(ck);
  EXPECT_EQ(st.owned, brute);
  EXPECT_FALSE(st.complete);
  ASSERT_EQ(st.rows.size(), owned.size());
  for (std::size_t s = 0; s < owned.size(); ++s)
    EXPECT_EQ(st.rows[s].owned, owned[s]) << "slot " << s;
  GridSelection rest = remaining_selection(ck);
  EXPECT_EQ(rest.total(),
            static_cast<std::uint64_t>(brute - ck.completed_runs()));

  // Finishing exactly the remainder completes the shard.
  for (std::size_t s = 0; s < rest.slots.size(); ++s)
    for (const auto& [first, last] : rest.slots[s].ranges())
      for (int i = first; i <= last; ++i) ck.slots[s].done.insert(i);
  EXPECT_TRUE(ck.complete());
  EXPECT_TRUE(remaining_selection(ck).empty());

  {
    // An adaptive cell shard 1/3 (cells 1 and 4 of 5) killed mid-wave: its
    // committed grid is each owned cell's frontier, and owned_runs,
    // complete, the status rows and remaining_selection must all agree
    // with a brute-force walk of the frontiers.
    const std::vector<BatchEntry> entries = two_campaign_batch();
    const std::string path = scratch("adaptive_partial");
    struct Crash : CampaignObserver {
      int left = 8;  // wave 1 is 2 x 3 runs; die inside wave 2
      void on_run_done(const RunEvent&) override {
        if (--left == 0) throw std::runtime_error("simulated crash");
      }
    } crash;
    AdaptiveConfig ac;
    ac.policy.ci = 0.3;
    ac.policy.wave = 3;
    ac.jobs = 1;  // one worker: walks in order, no run after the crash
    ac.shard = ShardSpec{1, 3};
    ac.checkpoint_path = path;
    ac.checkpoint_every = 1;
    ac.observer = &crash;
    EXPECT_THROW(run_adaptive(entries, ac), std::runtime_error);
    Checkpoint ack = parse_checkpoint_json(util::read_file(path));
    ASSERT_EQ(ack.completed_runs(), 7);

    // Brute force: a cell is owned iff slot mod 3 == 1, its committed grid
    // is [0, frontier), and what of that is not done is the rest of the
    // interrupted wave, which a resume must run before anything else.
    int frontiers = 0;
    GridSelection catch_up;
    catch_up.slots.resize(ack.slots.size());
    for (std::size_t s = 0; s < ack.slots.size(); ++s) {
      const CheckpointSlot& cs = ack.slots[s];
      if (s % 3 != 1) {
        EXPECT_EQ(cs.frontier, 0) << "slot " << s;
        continue;
      }
      EXPECT_EQ(cs.frontier, 6) << "slot " << s;
      frontiers += cs.frontier;
      for (int i = 0; i < cs.frontier; ++i)
        if (!cs.done.contains(i)) catch_up.slots[s].insert(i);
    }
    ASSERT_EQ(frontiers, 12);

    EXPECT_EQ(ack.owned_runs(), frontiers);
    EXPECT_FALSE(ack.complete());
    const CheckpointStatus ast = checkpoint_status(ack);
    EXPECT_EQ(ast.owned, frontiers);
    EXPECT_FALSE(ast.complete);
    ASSERT_EQ(ast.rows.size(), ack.slots.size());
    for (std::size_t s = 0; s < ack.slots.size(); ++s)
      EXPECT_EQ(ast.rows[s].owned, s % 3 == 1 ? ack.slots[s].frontier : 0)
          << "slot " << s;
    const GridSelection owed = remaining_selection(ack);
    EXPECT_EQ(owed, catch_up);
    EXPECT_EQ(owed.total(),
              static_cast<std::uint64_t>(frontiers - ack.completed_runs()));

    // Finishing the wave empties the remainder; the shard is complete only
    // once its owned cells have stopped as well.
    for (std::size_t s = 0; s < owed.slots.size(); ++s)
      for (const auto& [first, last] : owed.slots[s].ranges())
        for (int i = first; i <= last; ++i) ack.slots[s].done.insert(i);
    EXPECT_TRUE(remaining_selection(ack).empty());
    EXPECT_FALSE(ack.complete());
    ack.slots[1].stopped = ack.slots[4].stopped = true;
    EXPECT_TRUE(ack.complete());
    std::remove(path.c_str());
  }
}

TEST(RunSet, MinusCarvesOutOverlaps) {
  RunSet a;
  a.append_range(0, 9);
  a.append_range(20, 29);
  RunSet b;
  b.append_range(3, 4);
  b.append_range(8, 21);
  b.append_range(25, 25);
  const RunSet d = a.minus(b);
  ASSERT_EQ(d.ranges().size(), 4u);
  EXPECT_EQ(d.ranges()[0], (std::pair<int, int>{0, 2}));
  EXPECT_EQ(d.ranges()[1], (std::pair<int, int>{5, 7}));
  EXPECT_EQ(d.ranges()[2], (std::pair<int, int>{22, 24}));
  EXPECT_EQ(d.ranges()[3], (std::pair<int, int>{26, 29}));
  EXPECT_EQ(a.minus(RunSet{}), a);
  EXPECT_TRUE(a.minus(a).empty());
}

TEST(Status, OneFormatterServesFilesAndTheWire) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string path = scratch("status");
  const Checkpoint partial = partial_checkpoint(entries, {6, 5}, path);

  const CheckpointStatus st = checkpoint_status(partial);
  EXPECT_FALSE(st.complete);
  EXPECT_EQ(st.done, 6 * 3 + 5 * 2);
  EXPECT_EQ(st.owned, 10 * 3 + 8 * 2);
  ASSERT_EQ(st.rows.size(), 5u);
  EXPECT_EQ(st.rows[0].app, "wavetoy");
  EXPECT_EQ(st.rows[0].done, 6);
  EXPECT_EQ(st.rows[0].owned, 10);
  EXPECT_NE(format_checkpoint_status(st).find("in progress"),
            std::string::npos);

  // The daemon's status reply carries the job master checkpoint, and the
  // client parses it with the file reader: every stage of a service master
  // (fresh with placeholder goldens, as JobStore::create builds it; partly
  // folded; complete) renders the same table after the round trip.
  const Checkpoint fresh = make_checkpoint(
      partial.specs, std::vector<Golden>(partial.specs.size()), ShardSpec{});
  const Checkpoint complete = run_with_checkpoint(entries, path, /*jobs=*/2);
  for (const Checkpoint* ck : {&fresh, &partial, &complete}) {
    const Checkpoint back = parse_checkpoint_json(checkpoint_json(*ck));
    EXPECT_EQ(format_checkpoint_status(checkpoint_status(back)),
              format_checkpoint_status(checkpoint_status(*ck)));
  }
  EXPECT_EQ(checkpoint_status(fresh).done, 0);
  EXPECT_EQ(checkpoint_status(fresh).owned, st.owned);
  EXPECT_TRUE(checkpoint_status(complete).complete);
  EXPECT_NE(format_checkpoint_status(checkpoint_status(complete))
                .find("done 46 of 46 (complete)"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Checkpoint, ShardOutputEqualsItsSidecar) {
  // A finished shard's default output (batch_to_checkpoint of its result)
  // and the last sidecar its CheckpointSink flushes are the same bytes, so
  // either artifact merges identically.
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const std::string path = scratch("output_sidecar");
  {  // Fixed-n shard 1/3, straight through.
    BatchConfig bc;
    bc.jobs = 2;
    bc.shard = ShardSpec{1, 3};
    bc.checkpoint_path = path;
    const BatchResult res = run_batch(entries, bc);
    EXPECT_EQ(checkpoint_json(batch_to_checkpoint(res)) + "\n",
              util::read_file(path));
  }
  {  // Shard 1/3 killed after 5 runs, then resumed into a binary sidecar.
    struct Crash : CampaignObserver {
      int left = 5;
      void on_run_done(const RunEvent&) override {
        if (--left == 0) throw std::runtime_error("simulated crash");
      }
    } crash;
    std::remove(path.c_str());
    BatchConfig bc;
    bc.jobs = 1;  // one worker: walks in order, no run after the crash
    bc.shard = ShardSpec{1, 3};
    bc.checkpoint_path = path;
    bc.checkpoint_every = 1;
    bc.observer = &crash;
    EXPECT_THROW(run_batch(entries, bc), std::runtime_error);
    const Checkpoint partial = parse_checkpoint_json(util::read_file(path));
    ASSERT_EQ(partial.completed_runs(), 4);
    ASSERT_FALSE(partial.complete());

    BatchConfig rc;
    rc.jobs = 2;
    rc.shard = ShardSpec{1, 3};
    rc.resume = &partial;
    rc.checkpoint_path = path;
    rc.checkpoint_encoding = CheckpointEncoding::kBinary;
    const BatchResult res = run_batch(entries, rc);
    EXPECT_EQ(checkpoint_serialize(batch_to_checkpoint(res),
                                   CheckpointEncoding::kBinary) +
                  "\n",
              util::read_file(path));
  }
  std::remove(path.c_str());
}

/// Parsing `text` must fail with a SetupError whose message names `why`.
void expect_refused(const std::string& text, const std::string& why) {
  try {
    (void)parse_checkpoint_json(text);
    ADD_FAILURE() << "accepted a forged checkpoint (" << why << ")";
  } catch (const util::SetupError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, ForgedDoneSetsAreRefused) {
  // Digests only prove a document was written by checkpoint_json; these
  // documents are, yet their done sets claim runs the shard cannot hold.
  std::vector<CampaignSpec> specs(1);
  specs[0].app = "jacobi";
  specs[0].runs_per_region = 4;
  specs[0].regions = {Region::kRegularReg, Region::kMessage};
  const std::vector<Golden> goldens(1);
  auto with_runs = [&](ShardSpec shard, std::initializer_list<int> runs) {
    Checkpoint ck = make_checkpoint(specs, goldens, shard);
    for (int i : runs) {
      ck.slots[0].done.insert(i);
      ++ck.slots[0].counts.executions;
    }
    return ck;
  };
  const auto encodings = {CheckpointEncoding::kJson,
                          CheckpointEncoding::kBinary};
  for (const CheckpointEncoding enc : encodings) {
    // Shard 0/2 owns runs 0 and 2 of slot 0: fine.
    EXPECT_NO_THROW(parse_checkpoint_json(
        checkpoint_serialize(with_runs({0, 2}, {0, 2}), enc)));
    // Run 1 belongs to shard 1/2.
    expect_refused(checkpoint_serialize(with_runs({0, 2}, {0, 1, 2}), enc),
                   "belongs to another shard");
    // Run 100 lies outside a 4-run grid.
    expect_refused(checkpoint_serialize(with_runs({0, 1}, {0, 100}), enc),
                   "outside the grid");

    // Adaptive: shard 0/2 owns cell 0 only, and a frontier stays in the
    // grid.
    Checkpoint adaptive = make_checkpoint(specs, goldens, ShardSpec{0, 2});
    adaptive.adaptive = AdaptivePolicy{};
    adaptive.slots[0].frontier = 4;
    EXPECT_NO_THROW(
        parse_checkpoint_json(checkpoint_serialize(adaptive, enc)));
    Checkpoint foreign = adaptive;
    foreign.slots[1].frontier = 2;
    expect_refused(checkpoint_serialize(foreign, enc),
                   "belongs to another shard");
    Checkpoint beyond = adaptive;
    beyond.slots[0].frontier = 5;
    expect_refused(checkpoint_serialize(beyond, enc), "outside the cell");
  }

  // A NaN policy is outside (0, 1) too. The binary blob carries the double
  // bit for bit and its digests are recomputed, so only the range check
  // stands between this file and a `fsim resume` that aborts.
  Checkpoint nan_policy = make_checkpoint(specs, goldens, ShardSpec{});
  nan_policy.adaptive = AdaptivePolicy{};
  nan_policy.adaptive->ci = std::numeric_limits<double>::quiet_NaN();
  expect_refused(checkpoint_serialize(nan_policy, CheckpointEncoding::kBinary),
                 "--ci must be in (0, 1)");

  // The committed forgeries the CLI tests feed to `fsim status` and `fsim
  // merge`: a real jacobi shard-0/2 checkpoint with run 1 (or run 100)
  // added to its first slot and the digests recomputed.
  for (const std::string ext : {".json", ".bin.json"}) {
    expect_refused(
        util::read_file(FSIM_TEST_DATA "/forged_foreign_run" + ext),
        "run 1 belongs to another shard than 0/2");
    expect_refused(
        util::read_file(FSIM_TEST_DATA "/forged_out_of_grid" + ext),
        "run 100 is outside the grid of 4 runs");
    // A real checkpoint of `fsim batch --apps=jacobi,jacobi`, written while
    // a repeated campaign was still accepted.
    expect_refused(
        util::read_file(FSIM_TEST_DATA "/repeated_campaign" + ext),
        "campaign for app 'jacobi' listed twice with the same spec");
  }
}

}  // namespace
}  // namespace fsim::core
