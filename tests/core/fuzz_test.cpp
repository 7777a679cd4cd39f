// Robustness properties of the laboratory itself: whatever we flip, the
// *host* must stay sound — every injected run terminates in a defined
// state, the classifier always returns a legal manifestation, and repeated
// campaigns never corrupt shared state.
#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "core/campaign.hpp"
#include "simmpi/world.hpp"
#include "svm/assembler.hpp"
#include "svm/env.hpp"
#include "util/rng.hpp"

namespace fsim::core {
namespace {

apps::App tiny_wavetoy() {
  apps::WavetoyConfig cfg;
  cfg.ranks = 4;
  cfg.columns = 6;
  cfg.rows = 8;
  cfg.steps = 6;
  cfg.cold_functions = 5;
  cfg.cold_heap_arrays = 1;
  return apps::make_wavetoy(cfg);
}

TEST(Fuzz, EveryRegionEveryOutcomeIsDefined) {
  CampaignConfig cfg;
  cfg.dictionary_entries = 512;
  cfg.prune = PruneLevel::kOff;  // simulate every run to its end
  const Prepared prepared = prepare(tiny_wavetoy(), cfg);

  for (unsigned region = 0; region < kNumRegions; ++region) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      const RunOutcome out = prepared.run(static_cast<Region>(region), seed);
      EXPECT_LT(static_cast<unsigned>(out.manifestation), kNumManifestations);
      EXPECT_LE(out.instructions,
                prepared.golden().hang_budget + 1'000'000);
    }
  }
}

TEST(Fuzz, RandomMultiBitRegisterStorms) {
  // Far beyond the paper's single-bit model: hammer 16 random register
  // flips into every rank mid-run; the job must still end in a defined
  // state without host-side failures.
  apps::App app = tiny_wavetoy();
  const svm::Program program = app.link();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    simmpi::World world(program, app.world);
    for (int i = 0; i < 40; ++i) world.advance();
    for (int r = 0; r < world.size(); ++r) {
      for (int k = 0; k < 16; ++k) {
        auto& gpr = world.machine(r).regs().gpr;
        gpr[rng.below(svm::kNumGpr)] ^= 1u << rng.below(32);
      }
    }
    const simmpi::JobStatus st = world.run(5'000'000);
    EXPECT_TRUE(st == simmpi::JobStatus::kCompleted ||
                st == simmpi::JobStatus::kCrashed ||
                st == simmpi::JobStatus::kMpiFatal ||
                st == simmpi::JobStatus::kAppAborted ||
                st == simmpi::JobStatus::kMpiHandler ||
                st == simmpi::JobStatus::kDeadlocked ||
                st == simmpi::JobStatus::kRunning);
  }
}

TEST(Fuzz, RandomTextShredding) {
  // Flip 50 random text bits at once; the decoder/interpreter must map
  // every resulting byte pattern to either execution or a clean trap.
  apps::App app = tiny_wavetoy();
  const svm::Program program = app.link();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed * 977);
    simmpi::World world(program, app.world);
    auto& mem = world.machine(static_cast<int>(rng.below(4))).memory();
    const auto& text = mem.extent(svm::Segment::kText);
    for (int k = 0; k < 50; ++k)
      mem.flip_bit(text.base + static_cast<svm::Addr>(rng.below(text.size)),
                   static_cast<unsigned>(rng.below(8)));
    const simmpi::JobStatus st = world.run(5'000'000);
    (void)st;  // any defined status is fine; the assertion is "no UB/crash"
  }
}

TEST(Fuzz, RandomChannelGarbage) {
  // Inject entire garbage packets (not just bit flips) into a rank's
  // channel; the ADI must reject them with a clean MPICH-style failure or
  // ignore them, never corrupt the host.
  apps::App app = tiny_wavetoy();
  const svm::Program program = app.link();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed * 31);
    simmpi::World world(program, app.world);
    std::vector<std::byte> junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::byte>(rng.below(256));
    world.enqueue_to(static_cast<int>(rng.below(4)), std::move(junk));
    const simmpi::JobStatus st = world.run(5'000'000);
    EXPECT_NE(st, simmpi::JobStatus::kRunning) << "job wedged on garbage";
  }
}

TEST(Fuzz, InterpreterSurvivesArbitraryInstructionWords) {
  // Execute completely random instruction memory: every path must end in a
  // trap, an exit, or plain execution — never host UB.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed * 1234567);
    std::ostringstream os;
    os << ".text\nmain:\n";
    for (int i = 0; i < 64; ++i)
      os << "    nop\n";
    os << "    ret\n.data\npad: .space 64\n";
    svm::Program p = svm::assemble(os.str());
    svm::Machine m(p, {});
    svm::BasicEnv env(m);
    // Overwrite the nops with random words (privileged, like the injector).
    const svm::Addr base = p.segment_base(svm::Segment::kText);
    for (int i = 0; i < 64; ++i)
      m.memory().poke32(base + 4 * static_cast<svm::Addr>(i),
                        static_cast<std::uint32_t>(rng()));
    m.step(100000);
    EXPECT_TRUE(m.state() == svm::RunState::kExited ||
                m.state() == svm::RunState::kTrapped ||
                m.state() == svm::RunState::kReady ||
                m.state() == svm::RunState::kBlocked);
  }
}

TEST(Fuzz, CampaignRepeatabilityUnderReuse) {
  // Two identical campaigns sharing nothing must agree exactly; a third
  // campaign run AFTER other work must too (no hidden global state).
  apps::App app = tiny_wavetoy();
  CampaignConfig cfg;
  cfg.runs_per_region = 6;
  cfg.regions = {Region::kRegularReg, Region::kMessage};
  cfg.seed = 4242;
  const CampaignResult a = run_campaign(app, cfg);
  run_golden(app, app.link());  // interleaved unrelated work
  const CampaignResult b = run_campaign(app, cfg);
  for (std::size_t i = 0; i < a.regions.size(); ++i)
    EXPECT_EQ(a.regions[i].counts, b.regions[i].counts);
}

}  // namespace
}  // namespace fsim::core
