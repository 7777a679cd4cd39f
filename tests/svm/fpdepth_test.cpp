// FP-stack depth analysis: interval bounds and slot-emptiness proofs on
// crafted programs, interprocedural over/underflow diagnostics the
// per-function relative checks cannot see, and a machine-trace validation
// on the paper's three applications — every static claim is checked
// against the dynamically observed FPU state.
#include <gtest/gtest.h>

#include <string>

#include "apps/app.hpp"
#include "simmpi/world.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/analysis/cfg.hpp"
#include "svm/analysis/fpdepth.hpp"
#include "svm/assembler.hpp"

namespace fsim::svm::analysis {
namespace {

struct Analyzed {
  Program program;
  Cfg cfg;
  FpDepth depth;
  explicit Analyzed(const std::string& src)
      : program(assemble(src)), cfg(program), depth(cfg) {}
};

bool has_issue(const FpDepth& d, const std::string& code) {
  for (const auto& i : d.issues())
    if (i.code == code) return true;
  return false;
}

TEST(FpDepth, StraightLineBoundsTrackPushesAndPops) {
  Analyzed a(R"(
.text
main:
    fldz
    fldz
    fldz
    faddp
    fpop
    fpop
    ldi r1, 0
    ret
)");
  const Addr base = a.cfg.user_text_base();
  // Depth on entry to each instruction: 0,1,2,3,2,1,0,0.
  const int expect[] = {0, 1, 2, 3, 2, 1, 0, 0};
  for (int i = 0; i < 8; ++i) {
    const DepthBounds b = a.depth.bounds_at(base + 4 * i);
    EXPECT_TRUE(b.reachable) << i;
    EXPECT_TRUE(b.anchored) << i;
    EXPECT_EQ(b.lo, expect[i]) << i;
    EXPECT_EQ(b.hi, expect[i]) << i;
  }
  // Max depth 3: physical slots 0..4 are empty at every instruction.
  EXPECT_EQ(a.depth.max_depth_bound(), 3u);
  EXPECT_EQ(a.depth.always_empty_slots(), 5u);
  // At the deepest point (entry to faddp, depth 3) slots 0..4 are provably
  // empty and slots 5..7 (occupied as 8-3..7) are not.
  for (unsigned p = 0; p < 5; ++p)
    EXPECT_TRUE(a.depth.slot_empty_at(base + 12, p)) << p;
  for (unsigned p = 5; p < 8; ++p)
    EXPECT_FALSE(a.depth.slot_empty_at(base + 12, p)) << p;
  EXPECT_TRUE(a.depth.issues().empty());
}

TEST(FpDepth, BranchJoinWidensToAnInterval) {
  Analyzed a(R"(
.text
main:
    ldi r1, 1
    beq r1, r0, skip
    fldz
skip:
    fpop
    ldi r1, 0
    ret
)");
  // On entry to `fpop` the depth is 0 (branch taken) or 1 (fallthrough):
  // the join is the anchored interval [0,1]. The pop itself can underflow
  // on the branch-taken path, so the state *after* it loses its anchor.
  const Addr base = a.cfg.user_text_base();
  const DepthBounds at_pop = a.depth.bounds_at(base + 12);
  EXPECT_TRUE(at_pop.reachable);
  EXPECT_TRUE(at_pop.anchored);
  EXPECT_EQ(at_pop.lo, 0);
  EXPECT_EQ(at_pop.hi, 1);
  const DepthBounds after_pop = a.depth.bounds_at(base + 16);
  EXPECT_TRUE(after_pop.reachable);
  EXPECT_FALSE(after_pop.anchored);  // possible underflow broke the anchor
  EXPECT_EQ(a.depth.always_empty_slots(), 0u);
}

TEST(FpDepth, UnreachablePcsProveNothing) {
  Analyzed a(R"(
.text
main:
    ldi r1, 0
    ret
cold:
    fldz
    fpop
    ret
)");
  const Addr cold = a.cfg.user_text_base() + 8;
  const DepthBounds b = a.depth.bounds_at(cold);
  EXPECT_FALSE(b.reachable);
  // No claim is made for unreached pcs — that is what keeps the analysis
  // sound when the fixpoint under-approximates nothing it can't see.
  for (unsigned p = 0; p < 8; ++p)
    EXPECT_FALSE(a.depth.slot_empty_at(cold, p));
}

TEST(FpDepth, InterproceduralOverflowIsDetected) {
  // main holds 4 values across the call; helper pushes 5 more — absolute
  // depth 9 overflows the 8-slot stack. Each function alone stays within
  // relative depth 5, so the per-function lint check cannot see this; the
  // whole-program fixpoint proves it.
  Analyzed a(R"(
.text
main:
    fldz
    fldz
    fldz
    fldz
    call helper
    fpop
    fpop
    fpop
    fpop
    ldi r1, 0
    ret
helper:
    fldz
    fldz
    fldz
    fldz
    fldz
    fpop
    fpop
    fpop
    fpop
    fpop
    ret
)");
  EXPECT_TRUE(has_issue(a.depth, "fp-static-overflow"));
  EXPECT_EQ(a.depth.always_empty_slots(), 0u);  // anchor lost at overflow

  // The same program through run_lint surfaces the fixpoint error.
  const LintResult r = run_lint(ProgramAnalysis(a.program), {});
  bool found = false;
  for (const auto& d : r.diagnostics) found |= d.code == "fp-static-overflow";
  EXPECT_TRUE(found);
  EXPECT_GT(r.errors, 0);
}

TEST(FpDepth, DefiniteUnderflowIsDetected) {
  Analyzed a(R"(
.text
main:
    fldz
    faddp
    ldi r1, 0
    ret
)");
  // faddp needs two operands; only one can be on the stack.
  EXPECT_TRUE(has_issue(a.depth, "fp-static-underflow"));
}

TEST(FpDepth, CallDepthImbalanceIsFlagged) {
  // helper is entered at depth 0 from one path and depth 1 from another
  // (disjoint paths, so the context-insensitive fixpoint converges); its
  // ST(i)-relative view of the stack is then ambiguous.
  Analyzed a(R"(
.text
main:
    ldi r1, 1
    beq r1, r0, deep
    call helper
    jmp done
deep:
    fldz
    call helper
    fpop
done:
    ldi r1, 0
    ret
helper:
    fldz
    fpop
    ret
)");
  EXPECT_TRUE(has_issue(a.depth, "fp-call-depth-imbalance"));
}

// --- Machine-trace validation on the paper's applications ---------------
//
// The injector's masking proof rests on slot_empty_at: whenever the
// machine pauses at pc, every slot the analysis calls empty must hold a
// kEmpty tag, and the anchored depth interval must contain the observed
// depth. Sample both at every scheduler round of a fault-free run.

void validate_against_trace(const apps::App& app) {
  const Program program = app.link();
  const Cfg cfg(program);
  const FpDepth depth(cfg);
  simmpi::World world(program, app.world);

  std::uint64_t checked = 0;
  while (world.status() == simmpi::JobStatus::kRunning) {
    world.advance();
    for (int r = 0; r < world.size(); ++r) {
      const Machine& m = world.machine(r);
      if (m.state() == RunState::kExited || m.state() == RunState::kTrapped)
        continue;
      const Addr pc = m.regs().pc;
      const Fpu& fpu = m.regs().fpu;
      const DepthBounds b = depth.bounds_at(pc);
      if (!b.reachable) continue;
      if (b.anchored) {
        const unsigned d = fpu.depth();
        ASSERT_GE(d, static_cast<unsigned>(b.lo)) << app.name;
        ASSERT_LE(d, static_cast<unsigned>(b.hi)) << app.name;
      }
      for (unsigned p = 0; p < kNumFpr; ++p) {
        if (!depth.slot_empty_at(pc, p)) continue;
        ASSERT_EQ(fpu.tag(p), FpuTag::kEmpty)
            << app.name << " slot " << p << " at pc " << pc;
        ++checked;
      }
    }
    if (world.global_instructions() > 500'000'000ull) break;
  }
  ASSERT_EQ(world.status(), simmpi::JobStatus::kCompleted) << app.name;
  // The proof must have had actual bite on the paper's FP-heavy apps.
  EXPECT_GT(checked, 0u) << app.name;
}

TEST(FpDepthTrace, WavetoySlotClaimsHoldDynamically) {
  apps::WavetoyConfig cfg;
  cfg.ranks = 4;
  cfg.columns = 8;
  cfg.rows = 8;
  cfg.steps = 6;
  validate_against_trace(apps::make_wavetoy(cfg));
}

TEST(FpDepthTrace, MinimdSlotClaimsHoldDynamically) {
  apps::MinimdConfig cfg;
  cfg.ranks = 4;
  cfg.atoms = 6;
  cfg.steps = 4;
  validate_against_trace(apps::make_minimd(cfg));
}

TEST(FpDepthTrace, AtmoSlotClaimsHoldDynamically) {
  apps::AtmoConfig cfg;
  cfg.ranks = 4;
  cfg.columns = 8;
  cfg.steps = 4;
  validate_against_trace(apps::make_atmo(cfg));
}

}  // namespace
}  // namespace fsim::svm::analysis
