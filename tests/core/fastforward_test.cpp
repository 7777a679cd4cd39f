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
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/campaign.hpp"
#include "simmpi/world.hpp"
#include "util/rng.hpp"

namespace fsim::core {
namespace {

using svm::exec::EngineKind;

constexpr std::array<Region, 8> kAllRegions = {
    Region::kRegularReg, Region::kFpReg, Region::kBss,  Region::kData,
    Region::kStack,      Region::kText,  Region::kHeap, Region::kMessage};

// The default campaign configuration, which prepare() reads its seed and
// levels from.
const CampaignConfig kDefaultConfig;

/// A campaign's preparation for one app (the default CampaignConfig, as
/// BatchSession prepares it), plus its golden run without the ladder.
struct Plan {
  const Prepared prepared;
  const apps::App& app = prepared.app();
  const svm::Program& program = prepared.program();
  const Golden& golden = prepared.golden();  // with its ladder
  Golden from_zero = golden;                 // the same, without one

  explicit Plan(const std::string& name)
      : prepared(prepare(apps::make_app(name), kDefaultConfig)) {
    from_zero.ladder = nullptr;
  }
  Plan(const Plan&) = delete;  // the references point into `prepared`

  /// Run `seed` both ways and require identical outcomes; returns the
  /// fast-forwarded one.
  RunOutcome expect_same(Region region, std::uint64_t seed, EngineKind engine,
                         PruneLevel prune) const {
    RunContext ctx = prepared.context();
    ctx.prune = prune;
    ctx.engine = engine;
    const FaultDictionary* dict = prepared.dictionary(region);
    const RunOutcome a =
        run_injected(app, program, from_zero, region, dict, seed, ctx);
    const RunOutcome b =
        run_injected(app, program, golden, region, dict, seed, ctx);
    EXPECT_TRUE(a == b) << app.name << " " << region_name(region)
                        << " seed " << seed << ": '" << a.fault_description
                        << "' vs '" << b.fault_description << "'";
    return b;
  }
};

const Plan& plan_for(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Plan>> plans;
  auto& p = plans[name];
  if (!p) p = std::make_unique<Plan>(name);
  return *p;
}

/// One app on one engine. Printed by name (never by the address of the
/// app's string), so the test names stay the same from build to build.
struct AppEngine {
  const char* app;
  EngineKind engine;
};

void PrintTo(const AppEngine& p, std::ostream* os) {
  *os << p.app << (p.engine == EngineKind::kInterp ? "_interp" : "_threaded");
}

class FastForward : public ::testing::TestWithParam<AppEngine> {};

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
    ::testing::Values(AppEngine{"wavetoy", EngineKind::kInterp},
                      AppEngine{"wavetoy", EngineKind::kThreaded},
                      AppEngine{"minimd", EngineKind::kInterp},
                      AppEngine{"minimd", EngineKind::kThreaded},
                      AppEngine{"atmo", EngineKind::kInterp},
                      AppEngine{"atmo", EngineKind::kThreaded}),
    [](const auto& info) { return ::testing::PrintToString(info.param); });

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
