// Exact early exit against the golden run: an injected run that ends at
// injection (read oracle, inert FPU flip) or at a rung it rejoins (exactly
// or only in observable state) must be indistinguishable from the same run
// simulated to the end. Every RunOutcome field is compared between a
// Golden carrying its oracle and ladder and the same Golden with both
// stripped, over the paper apps, every region, both engines and both ends
// of the prune scale. Each app must take every kind of exit, so none can go
// silently inert, and the FPU state the observable exits ignore must stay
// unread. The oracle itself must not depend on the engine that recorded
// it, and must hold at the injection boundary.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "apps/app.hpp"
#include "core/campaign.hpp"
#include "simmpi/world.hpp"
#include "svm/assembler.hpp"
#include "svm/env.hpp"
#include "svm/machine.hpp"
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

/// One app's campaign preparation, and its golden run without the oracle
/// and the ladder — whose runs simulate from t=0 to the end.
struct Plan {
  const Prepared prepared;
  const Golden& golden = prepared.golden();
  Golden full = golden;

  explicit Plan(const std::string& name)
      : prepared(prepare(apps::make_app(name), kDefaultConfig)) {
    full.ladder = nullptr;
    full.oracle = nullptr;
  }
  Plan(const Plan&) = delete;
};

const Plan& plan_for(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Plan>> plans;
  auto& p = plans[name];
  if (!p) p = std::make_unique<Plan>(name);
  return *p;
}

TEST(EarlyExit, OutcomesEqualFullSimulation) {
  for (const char* name : {"wavetoy", "minimd", "atmo"}) {
    const Plan& plan = plan_for(name);
    ASSERT_TRUE(plan.golden.oracle) << name;
    ASSERT_TRUE(plan.golden.ladder) << name;
    RunContext::EarlyExits exits;
    for (EngineKind engine : {EngineKind::kInterp, EngineKind::kThreaded})
      for (PruneLevel prune : {PruneLevel::kOff, PruneLevel::kFull})
        for (Region region : kAllRegions)
          for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            RunContext ctx = plan.prepared.context();
            ctx.engine = engine;
            ctx.prune = prune;
            const FaultDictionary* dict = plan.prepared.dictionary(region);
            const std::uint64_t run_seed = seed * 104729 + 3;
            const RunOutcome a =
                run_injected(plan.prepared.app(), plan.prepared.program(),
                             plan.full, region, dict, run_seed, ctx);
            ctx.exits = &exits;
            const RunOutcome b =
                run_injected(plan.prepared.app(), plan.prepared.program(),
                             plan.golden, region, dict, run_seed, ctx);
            EXPECT_TRUE(a == b)
                << name << " " << region_name(region) << " seed " << run_seed
                << ": '" << a.fault_description << "' vs '"
                << b.fault_description << "'";
          }
    EXPECT_GE(exits.read_oracle.load(), 1u) << name;
    EXPECT_GE(exits.rejoined.load(), 1u) << name;
    EXPECT_GE(exits.observable.load(), 1u) << name;
  }
}

// The fence under the observable exits: the FPU state Fpu::observably_equal
// ignores must stay unread. At random points of each app's run, every rank
// gets one flipped bit in each of CWD, SWD, FIP, FCS, FOO and FOS and in
// each slot tagged empty or zero; simulated to the end with no ladder or
// oracle, the run must still be the golden run. An instruction that reads
// one of those fields (an fstsw, say) fails here.
TEST(EarlyExit, IgnoredFpuStateIsNeverRead) {
  for (const char* name : {"wavetoy", "minimd", "atmo"}) {
    const Plan& plan = plan_for(name);
    const apps::App& app = plan.prepared.app();
    for (EngineKind engine : {EngineKind::kInterp, EngineKind::kThreaded}) {
      util::Rng rng(
          util::hash_seed({0xfe5ce, static_cast<std::uint64_t>(engine)}));
      for (int point = 0; point < 5; ++point) {
        const std::uint64_t t = rng.below(plan.golden.instructions);
        SCOPED_TRACE(std::string(name) + " t=" + std::to_string(t));
        simmpi::WorldOptions opts = app.world;
        opts.seed = 1;  // the injected runs' world
        opts.machine.engine = engine;
        opts.machine.compiled = plan.prepared.context().compiled;
        simmpi::World world(plan.prepared.program(), opts);
        while (world.status() == simmpi::JobStatus::kRunning &&
               world.global_instructions() < t)
          world.advance();
        ASSERT_EQ(world.status(), simmpi::JobStatus::kRunning);
        for (int r = 0; r < world.size(); ++r) {
          svm::Fpu& fpu = world.machine(r).regs().fpu;
          const svm::Fpu before = fpu;
          const auto bit16 = [&] {
            return static_cast<std::uint16_t>(1u << rng.below(16));
          };
          const auto bit32 = [&] {
            return static_cast<std::uint32_t>(1u << rng.below(32));
          };
          fpu.cwd() ^= bit16();
          fpu.swd() ^= bit16();
          fpu.fip() ^= bit32();
          fpu.fcs() ^= bit32();
          fpu.foo() ^= bit32();
          fpu.fos() ^= bit32();
          for (unsigned p = 0; p < svm::kNumFpr; ++p)
            if (fpu.tag(p) == svm::FpuTag::kEmpty ||
                fpu.tag(p) == svm::FpuTag::kZero)
              fpu.raw(p) ^= 1ull << rng.below(64);
          ASSERT_TRUE(fpu.observably_equal(before)) << "rank " << r;
        }
        while (world.status() == simmpi::JobStatus::kRunning &&
               world.global_instructions() < plan.golden.hang_budget)
          world.advance();
        ASSERT_EQ(world.status(), simmpi::JobStatus::kCompleted);
        EXPECT_EQ(app.baseline == apps::BaselineStream::kConsole
                      ? world.console()
                      : world.output(),
                  plan.golden.baseline);
        EXPECT_EQ(world.global_instructions(), plan.golden.instructions);
      }
    }
  }
}

TEST(EarlyExit, OracleIsEngineIndependent) {
  for (const char* name : {"wavetoy", "minimd", "atmo"}) {
    const Plan& plan = plan_for(name);
    const Golden interp =
        run_golden(plan.prepared.app(), plan.prepared.program(), 1,
                   EngineKind::kInterp);
    const Golden threaded =
        run_golden(plan.prepared.app(), plan.prepared.program(), 1,
                   EngineKind::kThreaded);
    ASSERT_TRUE(interp.oracle && threaded.oracle) << name;
    EXPECT_TRUE(*interp.oracle == *threaded.oracle) << name;
    EXPECT_EQ(interp.oracle->size(),
              static_cast<std::size_t>(plan.prepared.app().world.nranks));
  }
}

// A golden run whose world seed differs from the injected runs' replays a
// different trajectory, so it records neither ladder nor oracle.
TEST(EarlyExit, OnlyTheInjectedRunsWorldRecords) {
  const Plan& plan = plan_for("wavetoy");
  const Golden other =
      run_golden(plan.prepared.app(), plan.prepared.program(), 2);
  EXPECT_FALSE(other.oracle);
  EXPECT_FALSE(other.ladder);
}

// The boundary the exit hinges on: a fault lands between instructions,
// after the rank's `count`-th. A read by instruction count + 1 comes after
// it; a last read by instruction `count` does not.
TEST(EarlyExit, OracleBoundaryAtInjectionCount) {
  const svm::Program program = svm::assemble(R"(
.data
early: .word 7
late:  .word 9
spare: .word 11
.text
main:
    la r2, early
    ldw r3, [r2]     ; the last read of `early`
    la r4, late
    ldw r5, [r4]     ; the only read of `late`
    ldi r1, 0
    ret
)");
  for (EngineKind engine : {EngineKind::kInterp, EngineKind::kThreaded}) {
    svm::Machine::Config config;
    config.engine = engine;
    svm::Machine machine(program, config);
    svm::BasicEnv env(machine);
    svm::ReadLog log(machine.memory());
    machine.memory().set_read_log(&log);
    // One instruction per step, as a scheduler quantum of 1 would run them.
    while (machine.state() == svm::RunState::kReady) machine.step(1);
    ASSERT_EQ(machine.state(), svm::RunState::kExited);

    const svm::Addr early = program.find_symbol("early")->address;
    const svm::Addr late = program.find_symbol("late")->address;
    const svm::Addr spare = program.find_symbol("spare")->address;
    // The numbers of the two loads: the instructions that fill r3 and r5.
    std::uint64_t early_at = 0, late_at = 0;
    {
      svm::Machine probe(program, config);
      svm::BasicEnv probe_env(probe);
      while (probe.state() == svm::RunState::kReady) {
        const std::uint32_t r3 = probe.regs().gpr[3];
        const std::uint32_t r5 = probe.regs().gpr[5];
        probe.step(1);
        if (early_at == 0 && probe.regs().gpr[3] != r3)
          early_at = probe.instructions();
        if (late_at == 0 && probe.regs().gpr[5] != r5)
          late_at = probe.instructions();
      }
    }
    ASSERT_GT(early_at, 0u);
    ASSERT_GT(late_at, early_at);
    // Last read at the injection count: the flip is never observed.
    EXPECT_FALSE(log.read_after(early, early_at));
    EXPECT_TRUE(log.read_after(early, early_at - 1));
    // Read by the first instruction after the injection point: live.
    EXPECT_TRUE(log.read_after(late, late_at - 1));
    EXPECT_FALSE(log.read_after(late, late_at));
    // Never read; and the fetch of each instruction counts as its read.
    EXPECT_FALSE(log.read_after(spare, 0));
    const svm::Addr main = program.find_symbol("main")->address;
    EXPECT_TRUE(log.read_after(main, 0));
    EXPECT_FALSE(log.read_after(main, 1));
  }
}

}  // namespace
}  // namespace fsim::core
