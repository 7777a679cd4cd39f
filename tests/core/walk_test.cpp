// Injected walks against single runs: a walk (run_walk) runs many points
// on one golden World, advancing it from fault time to fault time and
// poking it only for the points its draw leaves undecided, so each outcome
// it hands back must be exactly the one the point's own run gives
// (run_injected, the one-point walk). Every RunOutcome field is compared,
// over the paper apps, every region, both engines and both ends of the
// prune scale, and over the boundaries the walk hinges on: fault times on
// a rung's count, on a stall round's (ties included), and in the final
// round, where the job completes before the fault.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <optional>
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

const Prepared& prepared_for(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Prepared>> plans;
  auto& p = plans[name];
  if (!p)
    p = std::make_unique<Prepared>(
        prepare(apps::make_app(name), kDefaultConfig));
  return *p;
}

RunContext context_for(const Prepared& p, EngineKind engine,
                       PruneLevel prune) {
  RunContext ctx = p.context();
  ctx.engine = engine;
  ctx.prune = prune;
  return ctx;
}

WalkPoint point(const Prepared& p, Region region, std::uint64_t seed) {
  return WalkPoint{region, p.dictionary(region), seed};
}

/// Outcomes in list order, and the early exits and golden replay the runs
/// that gave them took.
struct Runs {
  std::vector<RunOutcome> outcomes;
  std::array<std::uint64_t, 3> exits{};  // read oracle, rejoined, observable
  std::uint64_t replayed = 0;
};

Runs tally(std::vector<RunOutcome> outcomes,
           const RunContext::EarlyExits& e) {
  return {std::move(outcomes),
          {e.read_oracle.load(), e.rejoined.load(), e.observable.load()},
          e.replayed.load()};
}

/// Each point run alone, in a World of its own.
Runs run_alone(const Prepared& p, const std::vector<WalkPoint>& points,
               RunContext ctx) {
  RunContext::EarlyExits exits;
  ctx.exits = &exits;
  std::vector<RunOutcome> outcomes;
  for (const WalkPoint& pt : points)
    outcomes.push_back(run_injected(p.app(), p.program(), p.golden(),
                                    pt.region, pt.dictionary, pt.seed, ctx));
  return tally(std::move(outcomes), exits);
}

/// The points walked through `slot`, each group of indices as one walk.
Runs run_walks(const Prepared& p, const std::vector<WalkPoint>& points,
               const std::vector<std::vector<std::size_t>>& walks,
               RunContext ctx, WorldSlot& slot) {
  RunContext::EarlyExits exits;
  ctx.exits = &exits;
  std::vector<std::optional<RunOutcome>> walked(points.size());
  for (const std::vector<std::size_t>& walk : walks) {
    std::vector<WalkPoint> pts;
    for (const std::size_t i : walk) pts.push_back(points[i]);
    run_walk(p.app(), p.program(), p.golden(), pts, ctx, &slot,
             [&](std::size_t k, const RunOutcome& out) {
               EXPECT_FALSE(walked[walk[k]].has_value()) << "point " << k;
               walked[walk[k]] = out;
               return true;
             });
  }
  std::vector<RunOutcome> outcomes;
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(walked[i].has_value()) << "point " << i;
    outcomes.push_back(walked[i].value_or(RunOutcome{}));
  }
  return tally(std::move(outcomes), exits);
}

/// The whole list as one walk.
std::vector<std::vector<std::size_t>> one_walk(std::size_t n) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  return {all};
}

/// Every walked outcome, and the exits taken, must be the lone runs'; the
/// walks replay no more golden run than the lone runs do.
void expect_same(const Prepared& p, const std::vector<WalkPoint>& points,
                 const Runs& walked, const Runs& alone) {
  ASSERT_EQ(walked.outcomes.size(), points.size());
  ASSERT_EQ(alone.outcomes.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_TRUE(walked.outcomes[i] == alone.outcomes[i])
        << p.app().name << " " << region_name(points[i].region) << " seed "
        << points[i].seed << ": '" << walked.outcomes[i].fault_description
        << "' vs '" << alone.outcomes[i].fault_description << "'";
  EXPECT_EQ(walked.exits, alone.exits);
  EXPECT_LE(walked.replayed, alone.replayed);
}

/// Walk `points` as one walk through `slot` and run each alone: equal
/// outcomes. Returns the walked ones.
std::vector<RunOutcome> expect_walk_equals_runs(
    const Prepared& p, const std::vector<WalkPoint>& points,
    const RunContext& ctx, WorldSlot& slot) {
  const Runs walked = run_walks(p, points, one_walk(points.size()), ctx, slot);
  expect_same(p, points, walked, run_alone(p, points, ctx));
  return walked.outcomes;
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

class Walk : public ::testing::TestWithParam<AppEngine> {};

TEST_P(Walk, OutcomesEqualOnePointRuns) {
  // The first 40 grid points of every region, walked at once (across
  // rungs, message points among them) and then split as a batch session
  // splits them (walks_of), through one slot whose World the first walk
  // leaves wherever its last point ended.
  const auto [name, engine] = GetParam();
  const Prepared& p = prepared_for(name);
  ASSERT_TRUE(p.golden().ladder);
  std::vector<WalkPoint> points;
  for (Region region : kAllRegions)
    for (int i = 0; i < 40; ++i)
      points.push_back(
          point(p, region, run_seed_for(kDefaultConfig.seed, region, i)));
  for (PruneLevel prune : {PruneLevel::kOff, PruneLevel::kFull}) {
    const RunContext ctx = context_for(p, engine, prune);
    const Runs alone = run_alone(p, points, ctx);
    WorldSlot slot;
    const Runs whole =
        run_walks(p, points, one_walk(points.size()), ctx, slot);
    expect_same(p, points, whole, alone);
    EXPECT_LT(whole.replayed, alone.replayed) << name;
    const std::vector<std::vector<std::size_t>> walks =
        walks_of(p.golden(), points);
    EXPECT_GE(walks.size(), 40u + 8u) << name;  // messages + rung intervals
    expect_same(p, points, run_walks(p, points, walks, ctx, slot), alone);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperApps, Walk,
    ::testing::Values(AppEngine{"wavetoy", EngineKind::kInterp},
                      AppEngine{"wavetoy", EngineKind::kThreaded},
                      AppEngine{"minimd", EngineKind::kInterp},
                      AppEngine{"minimd", EngineKind::kThreaded},
                      AppEngine{"atmo", EngineKind::kInterp},
                      AppEngine{"atmo", EngineKind::kThreaded}),
    [](const auto& info) { return ::testing::PrintToString(info.param); });

/// The global count at every round boundary of the golden run, the
/// boundaries of its stall rounds (every rank parked, no progress yet short
/// of the deadlock verdict) and the count its last round starts from.
struct Boundaries {
  std::set<std::uint64_t> stalls;
  std::uint64_t last_round_from = 0;
};

Boundaries boundaries_of(const Prepared& p) {
  simmpi::WorldOptions opts = p.app().world;
  opts.seed = 1;  // the injected runs' world
  simmpi::World w(p.program(), opts);
  Boundaries b;
  while (w.status() == simmpi::JobStatus::kRunning) {
    b.last_round_from = w.global_instructions();
    w.advance();
    if (w.snapshot_state().stall_rounds > 0)
      b.stalls.insert(w.global_instructions());
  }
  return b;
}

// A point's fault time is the first draw of its RNG (fault_start); these
// searches replay it to pick seeds that land on a chosen count.
std::uint64_t t_inject_of(const Golden& g, std::uint64_t seed) {
  util::Rng rng(seed);
  return fault_start(g, rng).t_inject;
}

TEST(WalkEdges, FaultTimeOnRungOrStallRound) {
  // The boundaries of FastForwardEdges.FaultTimeOnRungOrStallRound: atmo's
  // stall rounds share their count with the boundary before them, and a
  // rung's count is a fault time its own walk must not start from. Each
  // seed is walked in three regions, so three points tie on one fault
  // time, beside ordinary points between them.
  const Prepared& p = prepared_for("atmo");
  ASSERT_TRUE(p.golden().ladder);
  const Boundaries b = boundaries_of(p);
  ASSERT_FALSE(b.stalls.empty());
  std::set<std::uint64_t> rungs;
  for (const simmpi::Snapshot& rung : *p.golden().ladder)
    rungs.insert(rung.instructions());

  std::vector<WalkPoint> points;
  std::vector<std::uint64_t> times;
  int on_stall = 0, on_rung = 0;
  for (std::uint64_t seed = 0;
       seed < (1u << 24) && (on_stall < 3 || on_rung < 3); ++seed) {
    const std::uint64_t t = t_inject_of(p.golden(), seed);
    const bool stall = b.stalls.count(t) > 0, rung = rungs.count(t) > 0;
    if (!(stall && on_stall < 3) && !(rung && on_rung < 3)) continue;
    on_stall += stall;
    on_rung += rung;
    for (Region region : {Region::kRegularReg, Region::kStack, Region::kHeap})
      points.push_back(point(p, region, seed));
    points.push_back(point(p, Region::kFpReg, seed * 7919 + 11));
    times.push_back(t);
  }
  ASSERT_GE(on_stall, 1);
  ASSERT_GE(on_rung, 1);
  for (EngineKind engine : {EngineKind::kInterp, EngineKind::kThreaded}) {
    WorldSlot slot;
    const std::vector<RunOutcome> out = expect_walk_equals_runs(
        p, points, context_for(p, engine, PruneLevel::kFull), slot);
    ASSERT_EQ(out.size(), points.size());
    // Registers are always a viable target: the fault lands on the first
    // boundary at t, the one a rung at t would skip past.
    for (std::size_t k = 0; k < times.size(); ++k)
      EXPECT_EQ(out[4 * k].injected_at, times[k]);
  }
}

TEST(WalkEdges, FaultInTheFinalRound) {
  // A fault time inside the last round: the job completes before the
  // boundary that would reach it, so the run ends unfaulted, Correct at
  // the golden count. The walk's World is then the completed golden job,
  // and a later point of the same walk must find the same.
  for (const char* name : {"wavetoy", "minimd"}) {
    const Prepared& p = prepared_for(name);
    const Boundaries b = boundaries_of(p);
    std::vector<WalkPoint> points = {
        point(p, Region::kStack, run_seed_for(kDefaultConfig.seed,
                                              Region::kStack, 0))};
    for (std::uint64_t seed = 0; seed < (1u << 24) && points.size() < 3;
         ++seed)
      if (t_inject_of(p.golden(), seed) > b.last_round_from)
        points.push_back(point(
            p, points.size() == 1 ? Region::kRegularReg : Region::kHeap,
            seed));
    ASSERT_EQ(points.size(), 3u) << name;
    for (PruneLevel prune : {PruneLevel::kOff, PruneLevel::kFull}) {
      WorldSlot slot;
      const std::vector<RunOutcome> out = expect_walk_equals_runs(
          p, points, context_for(p, EngineKind::kThreaded, prune), slot);
      ASSERT_EQ(out.size(), 3u);
      for (std::size_t k = 1; k < 3; ++k) {
        EXPECT_FALSE(out[k].fault_applied) << name;
        EXPECT_EQ(out[k].manifestation, Manifestation::kCorrect) << name;
        EXPECT_EQ(out[k].instructions, p.golden().instructions) << name;
      }
    }
  }
}

TEST(WalkEdges, VisitCanStopTheWalk) {
  // A visitor that returns false ends the walk before its next point.
  const Prepared& p = prepared_for("wavetoy");
  std::vector<WalkPoint> points;
  for (int i = 0; i < 6; ++i)
    points.push_back(point(p, Region::kRegularReg,
                           run_seed_for(kDefaultConfig.seed,
                                        Region::kRegularReg, i)));
  WorldSlot slot;
  int visited = 0;
  run_walk(p.app(), p.program(), p.golden(), points, p.context(), &slot,
           [&](std::size_t, const RunOutcome&) { return ++visited < 2; });
  EXPECT_EQ(visited, 2);
}

}  // namespace
}  // namespace fsim::core
