// Batch executor and deterministic sharding: per-campaign aggregates must
// be bit-identical to serial run_campaign calls at any job count, the
// shard partition must be total and disjoint, and folding every shard's
// finished checkpoint (through the serialized form `fsim merge` reads)
// must reproduce the unsharded batch exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "apps/app.hpp"
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

/// The `fsim merge` path: each shard's finished checkpoint (its default
/// output) serialized, parsed back and folded into a whole-grid master.
Checkpoint fold_shards(const std::vector<BatchResult>& parts) {
  Checkpoint master;
  for (const BatchResult& part : parts) {
    const Checkpoint ck =
        parse_checkpoint_json(checkpoint_json(batch_to_checkpoint(part)));
    if (master.specs.empty())
      master = make_checkpoint(ck.specs, ck.goldens, ShardSpec{});
    fold_checkpoint(master, ck);
  }
  return master;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.regions.size(), b.regions.size());
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.golden.instructions, b.golden.instructions);
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

TEST(Batch, MatchesSerialCampaignsAtAnyJobCount) {
  const std::vector<BatchEntry> entries = two_campaign_batch();

  // Reference: each campaign through the one-campaign driver, serially.
  std::vector<CampaignResult> serial;
  for (const auto& e : entries) serial.push_back(run_campaign(e.app, e.config));

  for (int jobs : {1, 3, 8}) {
    BatchConfig bc;
    bc.jobs = jobs;
    const BatchResult batch = run_batch(entries, bc);
    ASSERT_EQ(batch.campaigns.size(), serial.size());
    for (std::size_t c = 0; c < serial.size(); ++c)
      expect_identical(batch.campaigns[c], serial[c]);
  }
}

TEST(Batch, SpecsEchoTheEntries) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  BatchConfig bc;
  bc.jobs = 2;
  const BatchResult batch = run_batch(entries, bc);
  ASSERT_EQ(batch.specs.size(), 2u);
  EXPECT_EQ(batch.specs[0], spec_of(entries[0].app.name, entries[0].config));
  EXPECT_EQ(batch.specs[1], spec_of(entries[1].app.name, entries[1].config));
  EXPECT_NE(batch.specs[0], batch.specs[1]);
}

TEST(Batch, OneSessionServesManySelections) {
  // The service worker's path: one prepared session runs every chunk of a
  // job, each a disjoint take_front selection writing its own sidecar.
  // Folding the sidecars reproduces the monolithic batch bit for bit.
  const std::vector<BatchEntry> entries = two_campaign_batch();
  for (int jobs : {1, 4}) {
    BatchConfig mono;
    mono.jobs = jobs;
    const BatchResult whole = run_batch(entries, mono);

    BatchSession session(entries, jobs);
    GridSelection pending = shard_selection(session.specs(), ShardSpec{});
    Checkpoint master;
    int chunks = 0;
    while (!pending.empty()) {
      const GridSelection chunk = take_front(pending, 7);
      const std::string path = "batch_test_session_" + std::to_string(jobs) +
                               "_" + std::to_string(chunks++) + ".json";
      BatchConfig bc;
      bc.selection = &chunk;
      bc.checkpoint_path = path;
      (void)run_batch(session, bc);
      const Checkpoint side = parse_checkpoint_json(util::read_file(path));
      std::remove(path.c_str());
      if (master.specs.empty())
        master = make_checkpoint(side.specs, side.goldens, ShardSpec{});
      fold_checkpoint(master, side);
    }
    EXPECT_EQ(chunks, 7);  // 46 grid points in chunks of 7
    ASSERT_TRUE(master.complete());
    const BatchResult folded = checkpoint_to_batch(master);
    EXPECT_EQ(batch_digest(folded), batch_digest(whole)) << jobs;
    EXPECT_EQ(outcome_digest(folded), outcome_digest(whole)) << jobs;

    // A borrowed session repeats every check that needs no preparation: a
    // selection still runs alone.
    const GridSelection all = shard_selection(session.specs(), ShardSpec{});
    BatchConfig sharded;
    sharded.selection = &all;
    sharded.shard = ShardSpec{1, 2};
    EXPECT_THROW(run_batch(session, sharded), util::SetupError);
  }
}

/// Two ranks that count to `spin`, then divide by zero: a golden run that
/// traps, later the longer it spins.
apps::App trapping_app(const std::string& name, int spin) {
  apps::App app;
  app.name = name;
  app.world.nranks = 2;
  app.user_asm = R"(
.text
main:
    enter 16
    call MPI_Init
    ldi r4, 0
    ldi r5, )" + std::to_string(spin) + R"(
spin:
    addi r4, r4, 1
    blt r4, r5, spin
    ldi r6, 0
    divs r7, r4, r6
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)";
  return app;
}

std::string setup_error(const std::vector<BatchEntry>& entries, int jobs) {
  try {
    BatchSession session(entries, jobs);
  } catch (const util::SetupError& e) {
    return e.what();
  }
  return "";
}

TEST(Batch, PrepareErrorIsTheLowestCampaignsAtAnyJobCount) {
  // Both golden runs trap, the second campaign's long before the first's,
  // so on a pool it fails first in time. The error reported is still the
  // first campaign's, with the text the serial walk gives.
  std::vector<BatchEntry> entries(2);
  entries[0].app = trapping_app("slow_trap", 30'000);
  entries[1].app = trapping_app("fast_trap", 10);
  for (BatchEntry& e : entries) e.config.runs_per_region = 2;
  const std::string serial = setup_error(entries, 1);
  EXPECT_NE(serial.find("golden run of 'slow_trap' did not complete"),
            std::string::npos)
      << serial;
  EXPECT_NE(serial.find("SIGFPE"), std::string::npos) << serial;
  for (int jobs : {1, 4}) EXPECT_EQ(setup_error(entries, jobs), serial) << jobs;

  // An entry with no runs is refused before anything is prepared: its
  // error wins over every golden run's.
  entries[1].config.runs_per_region = 0;
  for (int jobs : {1, 4}) {
    const std::string err = setup_error(entries, jobs);
    EXPECT_NE(err.find("must be >= 1 for app 'fast_trap', got 0"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("golden run"), std::string::npos) << err;
  }
}

TEST(Batch, ParallelPrepareMatchesSerial) {
  // More campaigns than workers: two pool threads run four golden runs
  // while the session's thread links and analyses. The goldens, field
  // for field, and the digests of a batch over them equal a one-worker
  // session's, whose goldens equal the serial prepare()'s.
  std::vector<BatchEntry> entries;
  for (const char* name : {"wavetoy", "minimd", "atmo", "jacobi"}) {
    BatchEntry e;
    e.app = apps::make_app(name);
    e.config.runs_per_region = 3;
    e.config.seed = 0x5eed;
    entries.push_back(std::move(e));
  }
  BatchSession serial(entries, 1);
  BatchSession pooled(entries, 2);
  const std::vector<Golden> a = serial.goldens();
  const std::vector<Golden> b = pooled.goldens();
  ASSERT_EQ(a.size(), entries.size());
  ASSERT_EQ(b.size(), entries.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    SCOPED_TRACE(entries[c].app.name);
    EXPECT_EQ(a[c].instructions, b[c].instructions);
    EXPECT_EQ(a[c].baseline, b[c].baseline);
    EXPECT_EQ(a[c].rx_bytes, b[c].rx_bytes);
    EXPECT_EQ(a[c].hang_budget, b[c].hang_budget);
    ASSERT_TRUE(a[c].ladder && b[c].ladder);
    ASSERT_EQ(a[c].ladder->size(), b[c].ladder->size());
    for (std::size_t k = 0; k < a[c].ladder->size(); ++k)
      EXPECT_EQ((*a[c].ladder)[k].instructions(),
                (*b[c].ladder)[k].instructions());
    ASSERT_TRUE(a[c].oracle && b[c].oracle);
    ASSERT_EQ(a[c].oracle->size(), b[c].oracle->size());
    for (std::size_t r = 0; r < a[c].oracle->size(); ++r)
      EXPECT_TRUE((*a[c].oracle)[r] == (*b[c].oracle)[r]) << "rank " << r;
  }
  const BatchResult one = run_batch(serial, BatchConfig{});
  const BatchResult two = run_batch(pooled, BatchConfig{});
  EXPECT_EQ(batch_digest(one), batch_digest(two));
  EXPECT_EQ(outcome_digest(one), outcome_digest(two));

  for (std::size_t c = 0; c < a.size(); ++c) {
    SCOPED_TRACE(entries[c].app.name);
    const Prepared p = prepare(entries[c].app, entries[c].config);
    const Golden& ref = p.golden();
    EXPECT_EQ(ref.instructions, a[c].instructions);
    EXPECT_EQ(ref.baseline, a[c].baseline);
    EXPECT_EQ(ref.rx_bytes, a[c].rx_bytes);
    EXPECT_EQ(ref.hang_budget, a[c].hang_budget);
    ASSERT_TRUE(ref.ladder && ref.oracle);
    ASSERT_EQ(ref.ladder->size(), a[c].ladder->size());
    for (std::size_t k = 0; k < ref.ladder->size(); ++k)
      EXPECT_EQ((*ref.ladder)[k].instructions(),
                (*a[c].ladder)[k].instructions());
    ASSERT_EQ(ref.oracle->size(), a[c].oracle->size());
    for (std::size_t r = 0; r < ref.oracle->size(); ++r)
      EXPECT_TRUE((*ref.oracle)[r] == (*a[c].oracle)[r]) << "rank " << r;
  }
}

TEST(Batch, ThrowingObserverStopsTheWalk) {
  // An observer that throws on its k-th event stops the walk at any job
  // count: run_batch rethrows the error, and the tasks that had not
  // started by then never run, so the sidecar holds the k-1 runs before
  // it plus at most the ones already in flight.
  const std::vector<BatchEntry> entries = two_campaign_batch();
  const int grid = 10 * 3 + 8 * 2;
  constexpr int kThrowAt = 5;
  const std::string path = "batch_test_throwing_observer.json";
  for (int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    struct Throwing final : CampaignObserver {
      int left = kThrowAt;
      void on_run_done(const RunEvent&) override {
        if (--left == 0) throw std::runtime_error("observer failed");
      }
    } throwing;
    std::remove(path.c_str());
    BatchConfig bc;
    bc.jobs = jobs;
    bc.checkpoint_path = path;
    bc.checkpoint_every = 1;
    bc.observer = &throwing;
    EXPECT_THROW(run_batch(entries, bc), std::runtime_error);
    const Checkpoint partial = parse_checkpoint_json(util::read_file(path));
    EXPECT_GE(partial.completed_runs(), kThrowAt - 1);
    EXPECT_LT(partial.completed_runs(), grid - 1);
  }
  std::remove(path.c_str());
}

TEST(Shard, PartitionIsTotalAndDisjoint) {
  // Every grid point must belong to exactly one of the N shards, for any
  // shard count — the property cross-host runs depend on.
  for (int count : {1, 2, 3, 5, 8, 16}) {
    for (std::uint64_t g = 0; g < 1000; ++g) {
      int owners = 0;
      for (int index = 0; index < count; ++index)
        if (shard_owns(g, ShardSpec{index, count})) ++owners;
      ASSERT_EQ(owners, 1) << "grid point " << g << " with " << count
                           << " shards";
    }
  }

  // The same partition as GridSelections: the N shard selections agree
  // with shard_owns point for point, so they are pairwise disjoint, their
  // union is the whole grid and their totals sum to its size.
  std::vector<CampaignSpec> specs(2);
  specs[0].runs_per_region = 10;
  specs[0].regions = {Region::kRegularReg, Region::kData, Region::kMessage};
  specs[1].runs_per_region = 7;
  specs[1].regions = {Region::kRegularReg, Region::kMessage};
  const std::uint64_t grid = 10 * 3 + 7 * 2;
  for (int count : {1, 2, 3, 5, 8, 16}) {
    std::vector<GridSelection> sels;
    std::uint64_t total = 0;
    for (int index = 0; index < count; ++index) {
      sels.push_back(shard_selection(specs, ShardSpec{index, count}));
      ASSERT_EQ(sels.back().slots.size(), 5u);
      total += sels.back().total();
    }
    EXPECT_EQ(total, grid) << count << " shards";
    std::uint64_t g = 0;
    std::size_t slot = 0;
    for (const CampaignSpec& spec : specs) {
      for (std::size_t ri = 0; ri < spec.regions.size(); ++ri, ++slot) {
        for (int i = 0; i < spec.runs_per_region; ++i, ++g) {
          int owners = 0;
          for (int index = 0; index < count; ++index) {
            const bool in = sels[index].slots[slot].contains(i);
            EXPECT_EQ(in, shard_owns(g, ShardSpec{index, count}));
            owners += in;
          }
          ASSERT_EQ(owners, 1) << "grid point " << g << " with " << count
                               << " shard selections";
        }
      }
    }
  }
}

TEST(Shard, InvalidShardIsRejected) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  for (ShardSpec bad : {ShardSpec{-1, 4}, ShardSpec{4, 4}, ShardSpec{0, 0}}) {
    BatchConfig bc;
    bc.shard = bad;
    EXPECT_THROW(run_batch(entries, bc), util::SetupError);
  }
}

TEST(Shard, AllShardsTogetherCoverTheGridExactlyOnce) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  BatchConfig bc;
  bc.jobs = 4;
  const BatchResult whole = run_batch(entries, bc);

  constexpr int kShards = 3;
  std::vector<BatchResult> parts;
  for (int s = 0; s < kShards; ++s) {
    BatchConfig sc;
    sc.jobs = 2;
    sc.shard = ShardSpec{s, kShards};
    parts.push_back(run_batch(entries, sc));
  }

  // Executions per (campaign, region) sum to the unsharded counts.
  for (std::size_t c = 0; c < whole.campaigns.size(); ++c) {
    for (std::size_t ri = 0; ri < whole.campaigns[c].regions.size(); ++ri) {
      int total = 0;
      for (const auto& p : parts)
        total += p.campaigns[c].regions[ri].executions;
      EXPECT_EQ(total, whole.campaigns[c].regions[ri].executions);
    }
  }

  // And the fold reproduces the unsharded batch bit for bit.
  const Checkpoint master = fold_shards(parts);
  EXPECT_TRUE(master.complete());
  const BatchResult merged = checkpoint_to_batch(master);
  ASSERT_EQ(merged.campaigns.size(), whole.campaigns.size());
  for (std::size_t c = 0; c < whole.campaigns.size(); ++c)
    expect_identical(merged.campaigns[c], whole.campaigns[c]);
  EXPECT_EQ(batch_digest(merged), batch_digest(whole));
}

TEST(Shard, MergeSurvivesTheJsonRoundTrip) {
  // The exact path `fsim merge` takes: each shard's finished checkpoint
  // serialized, parsed back, then folded.
  const std::vector<BatchEntry> entries = two_campaign_batch();
  BatchConfig bc;
  bc.jobs = 2;
  const BatchResult whole = run_batch(entries, bc);

  constexpr int kShards = 4;
  std::vector<BatchResult> parts;
  for (int s = 0; s < kShards; ++s) {
    BatchConfig sc;
    sc.jobs = 2;
    sc.shard = ShardSpec{s, kShards};
    const BatchResult part = run_batch(entries, sc);
    // The checkpoint round trip loses nothing the result carries.
    const Checkpoint ck =
        parse_checkpoint_json(checkpoint_json(batch_to_checkpoint(part)));
    EXPECT_TRUE(ck.complete());
    EXPECT_EQ(ck.shard, part.shard);
    EXPECT_EQ(ck.specs, part.specs);
    EXPECT_EQ(batch_json(checkpoint_to_batch(ck)), batch_json(part));
    parts.push_back(part);
  }

  const BatchResult merged = checkpoint_to_batch(fold_shards(parts));
  EXPECT_EQ(batch_digest(merged), batch_digest(whole));
  // The merged JSON document is byte-identical to the monolithic one.
  EXPECT_EQ(batch_json(merged), batch_json(whole));
}

TEST(Merge, RejectsMismatchedShards) {
  const std::vector<BatchEntry> entries = two_campaign_batch();
  auto shard = [&](int index, int count, std::uint64_t seed0) {
    std::vector<BatchEntry> es = entries;
    es[0].config.seed = seed0;
    BatchConfig sc;
    sc.shard = ShardSpec{index, count};
    return run_batch(es, sc);
  };
  const std::uint64_t seed = entries[0].config.seed;

  // Different campaign seed: a different batch.
  EXPECT_THROW(fold_shards({shard(0, 2, seed), shard(1, 2, seed + 1)}),
               util::SetupError);
  // Duplicate shard: its runs are already in the master.
  EXPECT_THROW(fold_shards({shard(0, 2, seed), shard(0, 2, seed)}),
               util::SetupError);
  // Missing shard: the fold leaves part of the grid uncovered, which
  // `fsim merge` refuses without --partial-report.
  EXPECT_FALSE(fold_shards({shard(0, 3, seed), shard(2, 3, seed)}).complete());
  // Different shard counts: 0/2 and 1/3 overlap at grid point 4.
  EXPECT_THROW(fold_shards({shard(0, 2, seed), shard(1, 3, seed)}),
               util::SetupError);
  // A refused fold leaves the master untouched.
  Checkpoint master = fold_shards({shard(0, 2, seed)});
  const std::string before = checkpoint_json(master);
  EXPECT_THROW(fold_checkpoint(master, batch_to_checkpoint(shard(0, 2, seed))),
               util::SetupError);
  EXPECT_EQ(checkpoint_json(master), before);
}

TEST(Batch, SpecFileParsing) {
  const std::string spec = R"({
    "format": "fsim-batch-v2",
    "runs": 32, "seed": 77, "regions": ["regular", "message"],
    "campaigns": [
      {"app": "wavetoy"},
      {"app": "minimd", "runs": 16, "prune": "off", "regions": ["text"]},
      {"app": "atmo", "prune": "full"}
    ]})";
  const std::vector<CampaignSpec> specs = parse_batch_spec(spec);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].app, "wavetoy");
  EXPECT_EQ(specs[0].runs_per_region, 32);
  EXPECT_EQ(specs[0].seed, 77u);
  EXPECT_EQ(specs[0].regions,
            (std::vector<Region>{Region::kRegularReg, Region::kMessage}));
  EXPECT_EQ(specs[0].prune, PruneLevel::kFull);
  EXPECT_EQ(specs[1].app, "minimd");
  EXPECT_EQ(specs[1].runs_per_region, 16);
  EXPECT_EQ(specs[1].prune, PruneLevel::kOff);
  EXPECT_EQ(specs[1].regions, (std::vector<Region>{Region::kText}));
  EXPECT_EQ(specs[2].app, "atmo");
  EXPECT_EQ(specs[2].prune, PruneLevel::kFull);

  const std::string v2 = R"({"format": "fsim-batch-v2", )";
  EXPECT_THROW(parse_batch_spec(v2 + R"("campaigns": []})"), util::SetupError);
  EXPECT_THROW(parse_batch_spec(v2 + R"("campaigns": [{}]})"),
               util::SetupError);
  EXPECT_THROW(parse_batch_spec("not json"), util::SetupError);
  // One schema: a spec without "format" (the retired v1) is refused.
  EXPECT_THROW(parse_batch_spec(R"({"campaigns": [{"app": "jacobi"}]})"),
               util::SetupError);
  // One spelling per level: the words are the level names, never booleans
  // (neither as strings nor as JSON booleans), and the retired "regs"
  // level is refused.
  for (const char* word : {R"("on")", R"("true")", R"("false")", "true",
                           "false", R"("regs")"})
    EXPECT_THROW(parse_batch_spec(v2 + R"("prune": )" + word +
                                  R"(, "campaigns": [{"app": "jacobi"}]})"),
                 util::SetupError)
        << word;
  // One spelling per region and engine: the retired aliases are refused.
  for (const char* region : {"reg", "gpr", "fpu", "msg"})
    EXPECT_THROW(parse_batch_spec(v2 + R"("regions": [")" + region +
                                  R"("], "campaigns": [{"app": "jacobi"}]})"),
                 util::SetupError)
        << region;
  EXPECT_THROW(parse_batch_spec(v2 + R"("engine": "interpreter", )" +
                                R"("campaigns": [{"app": "jacobi"}]})"),
               util::SetupError);
  // One campaign identity once: the same campaign listed twice is refused
  // (the engine is not part of the identity), while two campaigns of one
  // app that differ in seed, runs or params are legal.
  for (const char* twice :
       {R"({"app": "jacobi"}, {"app": "jacobi"})",
        R"({"app": "jacobi", "seed": 3}, {"app": "jacobi", "seed": 3})",
        R"({"app": "jacobi"}, {"app": "jacobi", "engine": "interp"})"})
    EXPECT_THROW(parse_batch_spec(v2 + R"("campaigns": [)" + twice + "]}"),
                 util::SetupError)
        << twice;
  for (const char* distinct :
       {R"({"app": "jacobi"}, {"app": "jacobi", "seed": 3})",
        R"({"app": "jacobi"}, {"app": "jacobi", "runs": 3})",
        R"({"app": "jacobi"}, {"app": "jacobi", "ranks": 2})"})
    EXPECT_EQ(parse_batch_spec(v2 + R"("campaigns": [)" + distinct + "]}")
                  .size(),
              2u)
        << distinct;

  // App params parse as given; building the app refuses a one-rank world
  // (every app needs a neighbour) and, for the timestep apps, a step count
  // beyond their 16-bit immediate. jacobi's steps cap its iterations.
  const auto build_error = [](const std::string& campaign) -> std::string {
    const std::vector<CampaignSpec> one = parse_batch_spec(
        R"({"format": "fsim-batch-v2", "campaigns": [)" + campaign + "]}");
    try {
      (void)apps::make_app(one.at(0).app, one.at(0).params);
    } catch (const util::SetupError& e) {
      return e.what();
    }
    return "";
  };
  for (const char* app : {"wavetoy", "minimd", "atmo", "jacobi"}) {
    const std::string name = std::string("\"") + app + "\"";
    EXPECT_NE(build_error(R"({"app": )" + name + R"(, "ranks": 1})")
                  .find("ranks must be in [2, 64], got 1"),
              std::string::npos)
        << app;
    EXPECT_EQ(build_error(R"({"app": )" + name + R"(, "ranks": 2})"), "")
        << app;
    const std::string steps =
        build_error(R"({"app": )" + name + R"(, "steps": 32768})");
    if (std::string(app) == "jacobi") {
      EXPECT_EQ(steps, "");
    } else {
      EXPECT_NE(steps.find(std::string("app '") + app +
                           "': steps must be at most 32767, got 32768"),
                std::string::npos)
          << steps;
      EXPECT_EQ(build_error(R"({"app": )" + name + R"(, "steps": 32767})"),
                "")
          << app;
    }
  }
}

TEST(Batch, RegionTokensRoundTrip) {
  for (unsigned r = 0; r < kNumRegions; ++r) {
    const Region region = static_cast<Region>(r);
    EXPECT_EQ(parse_region(region_token(region)), region);
  }
}

}  // namespace
}  // namespace fsim::core
