// Lockstep differential test of the two execution engines.
//
// Two Worlds run the same linked image with identical options except the
// engine (interpreter vs threaded). After every scheduler round — i.e. at
// every quantum boundary, where the injector is allowed to observe and
// mutate state — the full architectural state of every rank must match
// bit-for-bit: run state, trap, fault address, exit code, instruction
// count, pc, every GPR, the whole x87 state (stack TOP, tag word, control/
// status words, raw register bits) and, periodically, a digest of every
// memory segment's backed window (its bounds and bytes, so both engines
// must also grow windows identically).
//
// Mid-stream the test injects the same faults into both worlds between
// rounds, exactly as the campaign injector does between quanta: a text-word
// flip at the current pc (forcing the threaded engine to re-lower the
// compiled block), a GPR flip, FPU tag-word and mantissa flips, and data/
// stack memory flips. Whatever the outcome — clean completion, silent data
// corruption, a trap, a hang — both engines must produce it identically.
//
// Each app runs under several quantum configurations, including randomized
// (but seed-stable) quantum sizes and jitter, so quantum boundaries land at
// arbitrary points of the instruction stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "simmpi/world.hpp"
#include "svm/machine.hpp"
#include "svm/memory.hpp"

namespace {

using namespace fsim;

/// Digest of a segment's backed window: its bounds and its bytes.
std::uint64_t segment_digest(const svm::Memory& mem, svm::Segment seg) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (std::uint32_t edge : {mem.window(seg).lo, mem.window(seg).hi}) {
    h ^= edge;
    h *= 1099511628211ull;
  }
  for (std::byte b : mem.segment_bytes(seg)) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

/// Full architectural-state comparison of one rank across the two worlds.
void expect_same_state(svm::Machine& mi, svm::Machine& mt, int rank,
                       int round) {
  SCOPED_TRACE("rank " + std::to_string(rank) + " round " +
               std::to_string(round));
  ASSERT_EQ(mi.state(), mt.state());
  ASSERT_EQ(mi.trap(), mt.trap());
  ASSERT_EQ(mi.fault_addr(), mt.fault_addr());
  ASSERT_EQ(mi.exit_code(), mt.exit_code());
  ASSERT_EQ(mi.instructions(), mt.instructions());
  ASSERT_EQ(mi.regs().pc, mt.regs().pc);
  for (unsigned r = 0; r < svm::kNumGpr; ++r)
    ASSERT_EQ(mi.regs().gpr[r], mt.regs().gpr[r]) << "gpr " << r;
  svm::Fpu& fi = mi.regs().fpu;
  svm::Fpu& ft = mt.regs().fpu;
  ASSERT_EQ(fi.top(), ft.top());
  ASSERT_EQ(fi.twd(), ft.twd());
  ASSERT_EQ(fi.cwd(), ft.cwd());
  ASSERT_EQ(fi.swd(), ft.swd());
  ASSERT_EQ(fi.fip(), ft.fip());
  ASSERT_EQ(fi.fcs(), ft.fcs());
  ASSERT_EQ(fi.foo(), ft.foo());
  ASSERT_EQ(fi.fos(), ft.fos());
  for (unsigned r = 0; r < svm::kNumFpr; ++r)
    ASSERT_EQ(fi.raw(r), ft.raw(r)) << "fpr " << r;
}

void expect_same_memory(svm::Machine& mi, svm::Machine& mt, int rank,
                        int round) {
  SCOPED_TRACE("rank " + std::to_string(rank) + " round " +
               std::to_string(round));
  for (unsigned s = 0; s < svm::kNumSegments; ++s) {
    const auto seg = static_cast<svm::Segment>(s);
    ASSERT_EQ(segment_digest(mi.memory(), seg), segment_digest(mt.memory(), seg))
        << "segment " << s;
  }
}

struct QuantumSetup {
  std::uint64_t quantum;
  std::uint64_t jitter;
};

/// Run both engines in lockstep over `app`, injecting identical mid-stream
/// faults into both, and assert bit-identical state at every boundary.
void run_lockstep(const apps::App& app, const QuantumSetup& q,
                  bool with_flips) {
  SCOPED_TRACE(app.name + " quantum=" + std::to_string(q.quantum) +
               " jitter=" + std::to_string(q.jitter) +
               (with_flips ? " flips" : " clean"));
  const svm::Program program = app.link();

  simmpi::WorldOptions oi = app.world;
  oi.seed = 7;
  oi.quantum = q.quantum;
  oi.quantum_jitter = q.jitter;
  simmpi::WorldOptions ot = oi;
  oi.machine.engine = svm::exec::EngineKind::kInterp;
  ot.machine.engine = svm::exec::EngineKind::kThreaded;

  simmpi::World wi(program, oi);
  simmpi::World wt(program, ot);
  const int nranks = wi.size();

  // Applied between rounds to BOTH worlds — the injector's vantage point.
  auto flip_both = [&](auto&& fn) {
    for (simmpi::World* w : {&wi, &wt}) {
      for (int r = 0; r < nranks; ++r)
        if (w->machine(r).state() != svm::RunState::kReady) return;
    }
    fn(wi);
    fn(wt);
  };

  constexpr int kMaxRounds = 400000;
  int round = 0;
  while (wi.status() == simmpi::JobStatus::kRunning && round < kMaxRounds) {
    const simmpi::JobStatus si = wi.advance();
    const simmpi::JobStatus st = wt.advance();
    ++round;
    ASSERT_EQ(si, st) << "round " << round;
    ASSERT_EQ(wi.global_instructions(), wt.global_instructions())
        << "round " << round;
    for (int r = 0; r < nranks; ++r)
      expect_same_state(wi.machine(r), wt.machine(r), r, round);
    if (round % 64 == 0)
      for (int r = 0; r < nranks; ++r)
        expect_same_memory(wi.machine(r), wt.machine(r), r, round);

    if (!with_flips) continue;
    if (round == 40) {
      // Text flip at rank 0's current pc: the next execution of that word
      // must decode the flipped encoding in both engines (the threaded one
      // re-lowers the containing compiled block).
      flip_both([&](simmpi::World& w) {
        const std::uint32_t pc = w.machine(0).regs().pc;
        w.machine(0).memory().flip_bit(pc, 17);  // immediate-field bit
      });
    } else if (round == 55) {
      // Opcode-byte flip two words ahead — may turn the word into an
      // invalid instruction; both engines must trap (or not) identically.
      flip_both([&](simmpi::World& w) {
        const std::uint32_t pc = w.machine(0).regs().pc;
        w.machine(0).memory().flip_bit(pc + 8, 1);
      });
    } else if (round == 70) {
      flip_both([&](simmpi::World& w) {
        w.machine(nranks > 1 ? 1 : 0).regs().gpr[5] ^= 1u << 12;
      });
    } else if (round == 85) {
      flip_both([&](simmpi::World& w) {
        svm::Fpu& f = w.machine(nranks > 2 ? 2 : 0).regs().fpu;
        f.twd() = static_cast<std::uint16_t>(f.twd() ^ (1u << 2));
        f.raw(3) ^= 1ull << 52;
      });
    } else if (round == 100) {
      flip_both([&](simmpi::World& w) {
        svm::Memory& m = w.machine(0).memory();
        const auto& data = m.extent(svm::Segment::kData);
        if (data.size) m.flip_bit(data.base + data.size / 2, 3);
        const auto& stack = m.extent(svm::Segment::kStack);
        if (stack.size) m.flip_bit(stack.base + stack.size / 2, 6);
      });
    }
  }

  ASSERT_EQ(wi.status(), wt.status());
  for (int r = 0; r < nranks; ++r) {
    expect_same_state(wi.machine(r), wt.machine(r), r, round);
    expect_same_memory(wi.machine(r), wt.machine(r), r, round);
  }
  EXPECT_EQ(wi.output(), wt.output());
  EXPECT_EQ(wi.console(), wt.console());
}

/// Quantum configurations: the campaign default plus randomized (seeded)
/// sizes, including tiny quanta that put boundaries inside basic blocks.
std::vector<QuantumSetup> quantum_setups() {
  std::mt19937 rng(0xd1ffu);
  std::vector<QuantumSetup> qs;
  qs.push_back({128, 16});                     // campaign default shape
  qs.push_back({1 + rng() % 96, rng() % 32});  // mid-size randomized
  qs.push_back({1 + rng() % 16, rng() % 8});   // tiny randomized
  return qs;
}

/// Grows the heap and stack windows every way the engines can: heap
/// stores past the high-water mark, byte stores that leave the stack's
/// low-water mark off word alignment, loads that straddle it, and loads
/// from unbacked capacity, which read 0.
apps::App window_growth_app() {
  apps::App app;
  app.name = "grow";
  app.world.nranks = 2;
  app.user_asm = R"(
.text
main:
    enter 16
    call MPI_Init
    ldi r10, 0
    ldi r11, 0
heap_loop:
    ldi r1, 200
    sys 8
    mov r9, r1
    stw [r9+196], r11
    stb [r9+1], r11
    ldw r4, [r9+0]
    add r10, r10, r4
    ldw r4, [r9+100]
    add r10, r10, r4
    ldw r4, [r9+8192]
    add r10, r10, r4
    fldz
    fld1
    faddp
    fst [r9+188]
    addi r11, r11, 1
    ldi r5, 12
    blt r11, r5, heap_loop
    ldi r1, 24
    call deep
    add r10, r10, r1
    call MPI_Finalize
    mov r1, r10
    leave
    ret
deep:
    enter 48
    stw [fp-8], r1
    stb [fp-45], r1
    ldw r4, [fp-48]
    ldw r5, [sp-512]
    add r4, r4, r5
    stw [fp-12], r4
    ldi r5, 0
    beq r1, r5, deep_done
    addi r1, r1, -1
    call deep
    ldw r4, [fp-12]
    add r1, r1, r4
    ldw r4, [fp-8]
    add r1, r1, r4
deep_done:
    leave
    ret
)";
  return app;
}

apps::App small_app(const std::string& name) {
  if (name == "grow") return window_growth_app();
  if (name == "wavetoy") {
    apps::WavetoyConfig c;
    c.ranks = 4;
    c.columns = 6;
    c.rows = 8;
    c.steps = 6;
    c.cold_functions = 8;
    c.cold_heap_arrays = 1;
    return apps::make_wavetoy(c);
  }
  if (name == "minimd") {
    apps::MinimdConfig c;
    c.ranks = 4;
    c.atoms = 6;
    c.steps = 4;
    c.cold_functions = 8;
    c.cold_heap_bytes = 2048;
    return apps::make_minimd(c);
  }
  if (name == "atmo") {
    apps::AtmoConfig c;
    c.ranks = 4;
    c.columns = 6;
    c.steps = 4;
    c.cold_functions = 8;
    c.bss_table_bytes = 2048;
    c.cold_heap_bytes = 2048;
    return apps::make_atmo(c);
  }
  apps::JacobiConfig c;
  c.ranks = 4;
  c.cells = 4;
  c.max_iterations = 4000;
  return apps::make_jacobi(c);
}

// The growth program must really exercise the windows — and finish.
TEST(EngineDiff, GrowthProgramGrowsWindows) {
  const apps::App app = window_growth_app();
  const svm::Program program = app.link();
  simmpi::World w(program, app.world);
  ASSERT_EQ(w.run(10'000'000), simmpi::JobStatus::kCompleted);
  const svm::Memory& mem = w.machine(0).memory();
  EXPECT_GT(mem.window(svm::Segment::kHeap).hi, 12u * 200u);
  EXPECT_GT(mem.segment_bytes(svm::Segment::kStack).size(), 24u * 48u);
  EXPECT_LT(mem.segment_bytes(svm::Segment::kStack).size(),
            mem.extent(svm::Segment::kStack).size);
}

class EngineDiffTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineDiffTest, LockstepCleanAndWithFlips) {
  const apps::App app = small_app(GetParam());
  for (const QuantumSetup& q : quantum_setups()) {
    run_lockstep(app, q, /*with_flips=*/false);
    if (HasFatalFailure()) return;
    run_lockstep(app, q, /*with_flips=*/true);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, EngineDiffTest,
                         ::testing::Values("wavetoy", "minimd", "atmo",
                                           "jacobi", "grow"),
                         [](const auto& info) { return info.param; });

}  // namespace
