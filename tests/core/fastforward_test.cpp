// Golden fast-forward equivalence: an injected run that starts from the
// golden ladder must be indistinguishable from one that replays [0, t)
// from scratch. Every RunOutcome field is compared, over the paper apps,
// every region, both engines and both ends of the prune scale, plus the
// boundary cases the rung choice hinges on: a fault time equal to a rung's
// instruction count or to a stall-round boundary's, and a message byte
// equal to a rung's received volume.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "apps/app.hpp"
#include "core/dictionary.hpp"
#include "core/run.hpp"
#include "simmpi/world.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/exec/compiled.hpp"
#include "util/rng.hpp"

namespace fsim::core {
namespace {

using svm::exec::EngineKind;

constexpr std::array<Region, 8> kAllRegions = {
    Region::kRegularReg, Region::kFpReg, Region::kBss,  Region::kData,
    Region::kStack,      Region::kText,  Region::kHeap, Region::kMessage};

/// Everything a campaign prepares for one app, as BatchSession does it.
struct Plan {
  apps::App app;
  svm::Program program;
  std::array<std::unique_ptr<FaultDictionary>, kNumRegions> dicts;
  std::unique_ptr<svm::analysis::ProgramAnalysis> analysis;
  std::shared_ptr<const svm::exec::CompiledProgram> compiled;
  Golden golden;     // with its ladder
  Golden from_zero;  // the same, without one

  explicit Plan(const std::string& name) : app(apps::make_app(name)) {
    program = app.link();
    analysis = std::make_unique<svm::analysis::ProgramAnalysis>(program);
    util::Rng dict_rng(util::hash_seed({0xfa, 0xd1c7}));
    for (Region r : {Region::kText, Region::kData, Region::kBss})
      dicts[static_cast<unsigned>(r)] =
          std::make_unique<FaultDictionary>(program, r, dict_rng);
    const svm::analysis::ProgramAnalysis& an = *analysis;
    dicts[static_cast<unsigned>(Region::kText)]->annotate(
        [&](svm::Addr a) { return an.text_reachable_refined(a); },
        [&](svm::Addr a) {
          return an.text_reachable(a) ? PruneRung::kValueRange
                                      : PruneRung::kBase;
        });
    for (Region r : {Region::kData, Region::kBss})
      dicts[static_cast<unsigned>(r)]->annotate(
          [&](svm::Addr a) { return !an.data_byte_dead(a); });
    compiled =
        std::make_shared<svm::exec::CompiledProgram>(program, an.cfg());
    golden = run_golden(app, program, 1, EngineKind::kThreaded, compiled);
    from_zero = golden;
    from_zero.ladder = nullptr;
  }

  const FaultDictionary* dict(Region r) const {
    return dicts[static_cast<unsigned>(r)].get();
  }

  /// Run `seed` both ways and require identical outcomes; returns the
  /// fast-forwarded one.
  RunOutcome expect_same(Region region, std::uint64_t seed, EngineKind engine,
                         PruneLevel prune) const {
    const RunContext ctx{analysis.get(), prune, engine, compiled};
    const RunOutcome a = run_injected(app, program, from_zero, region,
                                      dict(region), seed, ctx);
    const RunOutcome b = run_injected(app, program, golden, region,
                                      dict(region), seed, ctx);
    SCOPED_TRACE(app.name + " " + region_name(region) + " seed " +
                 std::to_string(seed) + " " + a.fault_description);
    EXPECT_EQ(a.manifestation, b.manifestation);
    EXPECT_EQ(a.fault_description, b.fault_description);
    EXPECT_EQ(a.failure_detail, b.failure_detail);
    EXPECT_EQ(a.injected_at, b.injected_at);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.fault_applied, b.fault_applied);
    EXPECT_EQ(a.crash_kind, b.crash_kind);
    EXPECT_EQ(a.activation, b.activation);
    EXPECT_EQ(a.pruned, b.pruned);
    EXPECT_EQ(a.prune_rung, b.prune_rung);
    EXPECT_EQ(a.msg_fired, b.msg_fired);
    EXPECT_EQ(a.msg_hit_header, b.msg_hit_header);
    EXPECT_EQ(a.msg_offset_in_packet, b.msg_offset_in_packet);
    return b;
  }
};

const Plan& plan_for(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Plan>> plans;
  auto& p = plans[name];
  if (!p) p = std::make_unique<Plan>(name);
  return *p;
}

class FastForward
    : public ::testing::TestWithParam<std::tuple<const char*, EngineKind>> {};

TEST_P(FastForward, OutcomesEqualFromZero) {
  const auto [name, engine] = GetParam();
  const Plan& plan = plan_for(name);
  ASSERT_TRUE(plan.golden.ladder);
  EXPECT_GE(plan.golden.ladder->size(), 16u);
  EXPECT_LE(plan.golden.ladder->size(), 32u);
  for (Region region : kAllRegions)
    for (PruneLevel prune : {PruneLevel::kOff, PruneLevel::kFull})
      for (std::uint64_t seed = 1; seed <= 5; ++seed)
        plan.expect_same(region, seed * 7919 + 11, engine, prune);
}

INSTANTIATE_TEST_SUITE_P(
    PaperApps, FastForward,
    ::testing::Combine(::testing::Values("wavetoy", "minimd", "atmo"),
                       ::testing::Values(EngineKind::kInterp,
                                         EngineKind::kThreaded)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == EngineKind::kInterp ? "_interp"
                                                             : "_threaded");
    });

// The fault time is the first draw of the run's RNG (run.cpp); these
// searches replay that draw to pick seeds that land on a chosen count.
std::uint64_t t_inject_of(const Golden& g, std::uint64_t seed) {
  util::Rng rng(seed);
  return rng.below(g.instructions);
}

TEST(FastForwardEdges, FaultTimeOnRungOrStallRound) {
  // atmo's golden run has stall rounds (every rank parked, no progress yet
  // short of the deadlock verdict): the scheduler's stall counter is live
  // at those boundaries, and a run started there must carry it.
  const Plan& plan = plan_for("atmo");
  ASSERT_TRUE(plan.golden.ladder);
  std::set<std::uint64_t> stalls, rungs;
  {
    simmpi::WorldOptions opts = plan.app.world;
    opts.seed = 1;  // the injected runs' world
    simmpi::World w(plan.program, opts);
    while (w.status() == simmpi::JobStatus::kRunning) {
      w.advance();
      if (w.snapshot_state().stall_rounds > 0)
        stalls.insert(w.global_instructions());
    }
  }
  for (const simmpi::Snapshot& rung : *plan.golden.ladder)
    rungs.insert(rung.instructions());
  ASSERT_FALSE(stalls.empty());

  int on_stall = 0, on_rung = 0;
  for (std::uint64_t seed = 0; seed < (1u << 24) && (on_stall < 3 || on_rung < 3);
       ++seed) {
    const std::uint64_t t = t_inject_of(plan.golden, seed);
    const bool stall = stalls.count(t) > 0, rung = rungs.count(t) > 0;
    if (!(stall && on_stall < 3) && !(rung && on_rung < 3)) continue;
    on_stall += stall;
    on_rung += rung;
    for (Region region : {Region::kRegularReg, Region::kStack, Region::kHeap})
      for (EngineKind engine : {EngineKind::kInterp, EngineKind::kThreaded}) {
        const RunOutcome out =
            plan.expect_same(region, seed, engine, PruneLevel::kFull);
        // Registers are always a viable target: the fault lands on the
        // first boundary at t, the one a rung at t would skip past.
        if (region == Region::kRegularReg) {
          EXPECT_EQ(out.injected_at, t);
        }
      }
  }
  EXPECT_GE(on_stall, 1);
  EXPECT_GE(on_rung, 1);
}

TEST(FastForwardEdges, MessageByteOnRungVolume) {
  for (const char* name : {"wavetoy", "atmo"}) {
    const Plan& plan = plan_for(name);
    ASSERT_TRUE(plan.golden.ladder);
    std::vector<int> candidates;
    for (int r = 0; r < plan.app.world.nranks; ++r)
      if (plan.golden.rx_bytes[static_cast<std::size_t>(r)] > 0)
        candidates.push_back(r);
    int hits = 0;
    for (std::uint64_t seed = 0; seed < (1u << 22) && hits < 4; ++seed) {
      // Replays run_injected's draws: t, then rank, then byte.
      util::Rng rng(seed);
      (void)rng.below(plan.golden.instructions);
      const int rank = candidates[rng.below(candidates.size())];
      const std::uint64_t byte =
          rng.below(plan.golden.rx_bytes[static_cast<std::size_t>(rank)]);
      bool on_rung = false;
      for (const simmpi::Snapshot& rung : *plan.golden.ladder)
        on_rung |= rung.received_bytes(rank) == byte;
      if (!on_rung) continue;
      ++hits;
      for (EngineKind engine : {EngineKind::kInterp, EngineKind::kThreaded}) {
        const RunOutcome out =
            plan.expect_same(Region::kMessage, seed, engine, PruneLevel::kOff);
        EXPECT_EQ(out.injected_at, byte);
        EXPECT_TRUE(out.msg_fired);
      }
    }
    EXPECT_GE(hits, 1) << name;
  }
}

}  // namespace
}  // namespace fsim::core
