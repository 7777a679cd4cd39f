#include "core/run.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/analyze.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "svm/analysis/analysis.hpp"
#include "util/status.hpp"

namespace fsim::core {
namespace {

// Smaller wavetoy so run tests stay fast.
apps::App small_wavetoy() {
  apps::WavetoyConfig cfg;
  cfg.ranks = 4;
  cfg.columns = 8;
  cfg.rows = 8;
  cfg.steps = 8;
  cfg.cold_functions = 10;
  cfg.cold_heap_arrays = 1;
  return apps::make_wavetoy(cfg);
}

/// The small wavetoy linked once, with its golden run; runs inject without
/// a dictionary or a static context.
struct Linked {
  apps::App app = small_wavetoy();
  svm::Program program = app.link();
  Golden golden = run_golden(app, program);

  RunOutcome run(Region region, std::uint64_t seed) const {
    return run_injected(app, program, golden, region, nullptr, seed);
  }
};

TEST(RunGolden, CollectsReferenceData) {
  const Linked l;
  const Golden& g = l.golden;
  EXPECT_GT(g.instructions, 1000u);
  EXPECT_FALSE(g.baseline.empty());
  ASSERT_EQ(g.rx_bytes.size(), 4u);
  EXPECT_GT(g.rx_bytes[0], 0u);
  EXPECT_GT(g.hang_budget, g.instructions);
}

TEST(RunGolden, Deterministic) {
  const Linked l;
  const Golden b = run_golden(l.app, l.program);
  EXPECT_EQ(l.golden.instructions, b.instructions);
  EXPECT_EQ(l.golden.baseline, b.baseline);
  EXPECT_EQ(l.golden.rx_bytes, b.rx_bytes);
}

TEST(RunInjected, SeedReproducibility) {
  const Linked l;
  EXPECT_TRUE(l.run(Region::kRegularReg, 5) == l.run(Region::kRegularReg, 5));
}

TEST(RunInjected, OutcomesAreWellFormed) {
  const Linked l;
  int applied = 0;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const RunOutcome out = l.run(Region::kRegularReg, seed);
    if (out.fault_applied) {
      ++applied;
      EXPECT_FALSE(out.fault_description.empty());
      EXPECT_LE(out.injected_at, l.golden.instructions);
    }
    EXPECT_LE(out.instructions, l.golden.hang_budget + 100000);
  }
  EXPECT_GT(applied, 20);  // register targets almost always exist
}

TEST(RunInjected, MessageFaultsUseGoldenVolume) {
  const Linked l;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const RunOutcome out = l.run(Region::kMessage, seed);
    EXPECT_TRUE(out.fault_applied);
    EXPECT_NE(out.fault_description.find("message stream"), std::string::npos);
  }
}

TEST(RunInjected, CrashOutcomeCarriesSignal) {
  // Sweep seeds until a crash occurs; its detail must name a signal or an
  // MPICH fatal condition.
  const Linked l;
  bool found = false;
  for (std::uint64_t seed = 0; seed < 60 && !found; ++seed) {
    const RunOutcome out = l.run(Region::kRegularReg, seed);
    if (out.manifestation == Manifestation::kCrash) {
      found = true;
      EXPECT_FALSE(out.failure_detail.empty());
    }
  }
  EXPECT_TRUE(found);
}

TEST(RunInjected, UninjectedRunMatchesGolden) {
  // A message fault armed beyond the traffic volume never fires: the run
  // must classify as Correct.
  const Linked l;
  // Find a seed whose chosen byte is near the end and force no-fire by
  // shrinking: simplest honest check — run with the message region many
  // times; those that fired must be classified, those that did not must be
  // Correct. (Firing is recorded by fault_applied + channel state.)
  int corrects = 0, total = 0;
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    const RunOutcome out = l.run(Region::kMessage, seed);
    ++total;
    if (out.manifestation == Manifestation::kCorrect) ++corrects;
  }
  // Wavetoy message faults are mostly harmless (§6.2): the majority of
  // these runs complete correctly.
  EXPECT_GT(corrects, total / 2);
}

TEST(Campaign, SmallCampaignAggregates) {
  apps::App app = small_wavetoy();
  CampaignConfig cfg;
  cfg.runs_per_region = 10;
  cfg.regions = {Region::kRegularReg, Region::kMessage};
  struct Counting final : CampaignObserver {
    int runs = 0;
    void on_run_done(const RunEvent&) override { ++runs; }
  } counting;
  ExecPolicy exec;
  exec.observer = &counting;
  const CampaignResult res = run_campaign(app, cfg, exec);
  EXPECT_EQ(res.app, app.name);
  ASSERT_EQ(res.regions.size(), 2u);
  for (const auto& rr : res.regions) {
    EXPECT_EQ(rr.executions, 10);
    int sum = 0;
    for (unsigned m = 0; m < kNumManifestations; ++m) sum += rr.counts[m];
    EXPECT_EQ(sum, rr.executions);
    EXPECT_GE(rr.error_rate(), 0.0);
    EXPECT_LE(rr.error_rate(), 1.0);
  }
  EXPECT_EQ(counting.runs, 20);
  EXPECT_NE(res.find(Region::kRegularReg), nullptr);
  EXPECT_EQ(res.find(Region::kHeap), nullptr);
}

TEST(Campaign, FormatProducesPaperStyleTable) {
  apps::App app = small_wavetoy();
  CampaignConfig cfg;
  cfg.runs_per_region = 6;
  cfg.regions = {Region::kRegularReg};
  const CampaignResult res = run_campaign(app, cfg);
  const std::string table = format_campaign(res);
  EXPECT_NE(table.find("Fault Injection Results (wavetoy)"), std::string::npos);
  EXPECT_NE(table.find("Regular Reg."), std::string::npos);
  EXPECT_NE(table.find("Errors"), std::string::npos);
}

TEST(Campaign, DeterministicForSeed) {
  apps::App app = small_wavetoy();
  CampaignConfig cfg;
  cfg.runs_per_region = 8;
  cfg.regions = {Region::kStack};
  cfg.seed = 99;
  const CampaignResult a = run_campaign(app, cfg);
  const CampaignResult b = run_campaign(app, cfg);
  EXPECT_EQ(a.regions[0].counts, b.regions[0].counts);
}

TEST(Prepare, AnalyzePredictsFromTheCampaignDictionaries) {
  CampaignConfig cc;
  cc.runs_per_region = 0;  // static only
  cc.seed = 250;
  for (const char* name : {"wavetoy", "minimd", "atmo"}) {
    const AnalyzeResult res = analyze_app(apps::make_app(name), cc);
    const Prepared p = prepare(apps::make_app(name), cc);
    EXPECT_EQ(res.text_dead, p.dictionary(Region::kText)->dead_entries());
    EXPECT_EQ(res.data_dead, p.dictionary(Region::kData)->dead_entries());
    EXPECT_EQ(res.bss_dead, p.dictionary(Region::kBss)->dead_entries());
  }
}

TEST(Prepare, RunReplaysTheBatchGridPoint) {
  CampaignConfig cfg;  // every region
  cfg.runs_per_region = 6;
  cfg.seed = 31;
  struct Recorder final : CampaignObserver {
    std::map<std::pair<Region, int>, RunOutcome> outcomes;
    void on_run_done(const RunEvent& ev) override {
      outcomes[{ev.region, ev.run_index}] = *ev.outcome;
    }
  } recorder;
  ExecPolicy exec;
  exec.observer = &recorder;
  run_campaign(small_wavetoy(), cfg, exec);
  ASSERT_EQ(recorder.outcomes.size(), 8u * 6u);

  const Prepared prepared = prepare(small_wavetoy(), cfg);
  for (const auto& [point, batch] : recorder.outcomes) {
    const auto [region, i] = point;
    const RunOutcome out =
        prepared.run(region, run_seed_for(cfg.seed, region, i));
    EXPECT_TRUE(out == batch) << region_name(region) << " run " << i << ": '"
                              << out.fault_description << "' vs '"
                              << batch.fault_description << "'";
  }
}

TEST(Prepare, ReadmeCallPatternCoversTheStaticRegions) {
  const CampaignConfig config;
  const Prepared prepared = prepare(apps::make_app("wavetoy"), config);
  for (Region region : {Region::kText, Region::kData, Region::kBss}) {
    const RunOutcome out = prepared.run(region, /*seed=*/7);
    EXPECT_TRUE(out.fault_applied) << region_name(region);
    EXPECT_NE(out.activation, Activation::kUnknown) << region_name(region);
  }
}

TEST(Prepare, AnalysisSurvivesMove) {
  // BatchSession moves each Prepared into its plan list; the analysis
  // bundle must then still read the Program it was built from.
  const CampaignConfig config;
  Prepared prepared = prepare(apps::make_app("wavetoy"), config);
  std::vector<std::pair<svm::Addr, bool>> before[2];
  const Region regions[2] = {Region::kData, Region::kBss};
  for (int k = 0; k < 2; ++k)
    for (const DictEntry& e : prepared.dictionary(regions[k])->entries())
      before[k].emplace_back(e.address,
                             prepared.analysis().data_byte_dead(e.address));
  const auto dead = [](const std::vector<std::pair<svm::Addr, bool>>& v) {
    return std::count_if(v.begin(), v.end(),
                         [](const auto& q) { return q.second; });
  };
  EXPECT_EQ(dead(before[0]), 506);
  EXPECT_EQ(dead(before[1]), 518);

  std::vector<Prepared> plans;
  plans.push_back(std::move(prepared));
  const svm::analysis::ProgramAnalysis& moved = plans[0].analysis();
  for (int k = 0; k < 2; ++k) {
    int changed = 0;
    for (const auto& [address, was_dead] : before[k])
      changed += moved.data_byte_dead(address) != was_dead;
    EXPECT_EQ(changed, 0) << region_name(regions[k]);
  }
}

TEST(WorldSlot, RunsThroughOneSlotEqualRunsInFreshWorlds) {
  // A pool worker's slot serves run after run, of every region and of
  // more than one campaign, restoring each run's start into the World the
  // last one left behind. Every outcome must equal the run's in a World of
  // its own, field for field.
  CampaignConfig cfg;
  cfg.seed = 77;
  cfg.prune = PruneLevel::kOff;  // simulate every fault, text flips too
  std::vector<Prepared> plans;
  plans.push_back(prepare(small_wavetoy(), cfg));
  plans.push_back(prepare(apps::make_app("atmo"), cfg));
  WorldSlot slot;
  int runs = 0;
  for (int i = 0; i < 6; ++i)
    for (const Prepared& p : plans)
      for (unsigned r = 0; r < kNumRegions; ++r) {
        const auto region = static_cast<Region>(r);
        const std::uint64_t seed = run_seed_for(cfg.seed, region, i);
        const RunOutcome reused = p.run(region, seed, &slot);
        const RunOutcome fresh = p.run(region, seed);
        EXPECT_TRUE(reused == fresh)
            << p.app().name << " " << region_name(region) << " run " << i
            << ": '" << reused.fault_description << "' vs '"
            << fresh.fault_description << "'";
        ++runs;
      }
  EXPECT_EQ(runs, 6 * 2 * 8);
}

TEST(Report, JsonExportIsWellFormedAndComplete) {
  apps::App app = small_wavetoy();
  CampaignConfig cfg;
  cfg.runs_per_region = 5;
  cfg.regions = {Region::kRegularReg, Region::kMessage};
  const CampaignResult res = run_campaign(app, cfg);
  const std::string json = campaign_json(res);
  // Structural spot checks (the writer itself is unit-tested separately).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"app\":\"wavetoy\""), std::string::npos);
  EXPECT_NE(json.find("\"Regular Reg.\""), std::string::npos);
  EXPECT_NE(json.find("\"Message\""), std::string::npos);
  EXPECT_NE(json.find("\"manifestations\""), std::string::npos);
  EXPECT_NE(json.find("\"estimation_error_95pct\""), std::string::npos);
  // Balanced braces/brackets.
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Report, CsvExportHasRowPerRegion) {
  apps::App app = small_wavetoy();
  CampaignConfig cfg;
  cfg.runs_per_region = 4;
  cfg.regions = {Region::kStack};
  const CampaignResult res = run_campaign(app, cfg);
  const std::string csv = campaign_csv(res);
  std::size_t lines = 0;
  for (char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 2u);  // header + one region
  EXPECT_NE(csv.find("wavetoy,Stack,4,"), std::string::npos);
}

TEST(Region, ParseNames) {
  EXPECT_EQ(parse_region("regular"), Region::kRegularReg);
  EXPECT_EQ(parse_region("fp"), Region::kFpReg);
  EXPECT_EQ(parse_region("message"), Region::kMessage);
  EXPECT_EQ(parse_region("heap"), Region::kHeap);
  EXPECT_THROW(parse_region("bogus"), util::SetupError);
}

}  // namespace
}  // namespace fsim::core
