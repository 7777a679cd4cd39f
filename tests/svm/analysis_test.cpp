// Unit tests for the static dataflow layer: CFG construction, whole-program
// reachability, the shared fixpoint loops, the seeding of address-taken
// code and interprocedural register liveness, each on hand-written
// assembler snippets (or graphs) small enough to check by inspection.
#include <gtest/gtest.h>

#include "svm/analysis/analysis.hpp"
#include "svm/analysis/cfg.hpp"
#include "svm/analysis/dataflow.hpp"
#include "svm/analysis/defuse.hpp"
#include "svm/analysis/liveness.hpp"
#include "svm/assembler.hpp"
#include "svm/layout.hpp"

namespace fsim::svm::analysis {
namespace {

Program prog(const std::string& src) { return assemble(src); }

Addr addr_of(const Program& p, const std::string& name) {
  for (const auto& s : p.symbols())
    if (s.name == name) return s.address;
  ADD_FAILURE() << "no symbol " << name;
  return 0;
}

// --- CFG structure -------------------------------------------------------

TEST(Cfg, StraightLineIsOneBlockEndingInRet) {
  const Program p = prog(R"(
.text
main:
    ldi r1, 1
    addi r1, r1, 2
    ret
)");
  const Cfg cfg(p);
  const std::uint32_t entry = cfg.entry_block();
  ASSERT_NE(entry, Cfg::kNoBlock);
  const Block& b = cfg.block(entry);
  EXPECT_EQ(b.begin, kTextBase);
  EXPECT_EQ(b.end, kTextBase + 12);
  EXPECT_EQ(b.term, FlowKind::kRet);
  EXPECT_TRUE(b.succ.empty());
}

TEST(Cfg, BranchSplitsBlocksAndAddsBothEdges) {
  const Program p = prog(R"(
.text
main:
    ldi r1, 0
    ldi r2, 3
loop:
    addi r1, r1, 1
    ble r1, r2, loop
    ret
)");
  const Cfg cfg(p);
  const std::uint32_t head = cfg.entry_block();
  const std::uint32_t loop = cfg.block_index_of(addr_of(p, "loop"));
  ASSERT_NE(loop, Cfg::kNoBlock);
  ASSERT_NE(head, loop);
  // Entry falls through into the loop.
  ASSERT_EQ(cfg.block(head).succ.size(), 1u);
  EXPECT_EQ(cfg.block(head).succ[0], loop);
  // The loop block branches back to itself or falls through to the ret.
  const Block& lb = cfg.block(loop);
  EXPECT_EQ(lb.term, FlowKind::kBranch);
  ASSERT_EQ(lb.succ.size(), 2u);
  EXPECT_TRUE(lb.succ[0] == loop || lb.succ[1] == loop);
}

TEST(Cfg, CallRecordsCalleeAndFallthroughSuccessor) {
  const Program p = prog(R"(
.text
main:
    call fn
    ret
fn:
    ldi r1, 9
    ret
)");
  const Cfg cfg(p);
  const std::uint32_t entry = cfg.entry_block();
  const std::uint32_t fn = cfg.block_index_of(addr_of(p, "fn"));
  const Block& b = cfg.block(entry);
  EXPECT_EQ(b.term, FlowKind::kCall);
  EXPECT_EQ(b.call_target, static_cast<std::int32_t>(fn));
  // Intraprocedural successor is the return site, not the callee.
  ASSERT_EQ(b.succ.size(), 1u);
  EXPECT_EQ(cfg.block(b.succ[0]).term, FlowKind::kRet);
}

TEST(Cfg, FunctionsPartitionTextAndRecordReturnSites) {
  const Program p = prog(R"(
.text
main:
    call fn
    ret
fn:
    ldi r1, 9
    ret
)");
  const Cfg cfg(p);
  const std::uint32_t fn_block = cfg.block_index_of(addr_of(p, "fn"));
  const auto& owners = cfg.functions_of(fn_block);
  ASSERT_EQ(owners.size(), 1u);
  const Cfg::Function& f = cfg.functions()[owners[0]];
  EXPECT_EQ(f.entry, fn_block);
  ASSERT_EQ(f.rets.size(), 1u);
  ASSERT_EQ(f.return_sites.size(), 1u);
  EXPECT_FALSE(f.address_taken);
}

// --- Reachability --------------------------------------------------------

TEST(Cfg, UncalledFunctionIsUnreachable) {
  const Program p = prog(R"(
.text
main:
    ret
dead_fn:
    ldi r1, 1
    ret
)");
  const Cfg cfg(p);
  EXPECT_TRUE(cfg.reachable_addr(addr_of(p, "main")));
  EXPECT_FALSE(cfg.reachable_addr(addr_of(p, "dead_fn")));
}

TEST(Cfg, AddressTakenFunctionIsReachable) {
  // `la` materialises fn's address, so an indirect call could reach it:
  // the over-approximation must keep it reachable even with no direct call.
  const Program p = prog(R"(
.text
main:
    la r3, fn
    ret
fn:
    ldi r1, 1
    ret
)");
  const Cfg cfg(p);
  const Addr fn = addr_of(p, "fn");
  EXPECT_TRUE(cfg.address_taken(fn));
  EXPECT_TRUE(cfg.reachable_addr(fn));
}

TEST(Cfg, DataWordRelocationMarksTargetAddressTaken) {
  const Program p = prog(R"(
.text
main:
    ret
fn:
    ret
.data
table:
    .word fn
)");
  const Cfg cfg(p);
  EXPECT_TRUE(cfg.address_taken(addr_of(p, "fn")));
  EXPECT_TRUE(cfg.reachable_addr(addr_of(p, "fn")));
}

TEST(ProgramAnalysis, TextReachabilityCoversEveryByteOfAnInstruction) {
  // Dictionary entries are byte addresses; mid-instruction bytes of
  // reachable code must be classified reachable.
  const Program p = prog(R"(
.text
main:
    ldi r1, 1
    ret
)");
  const ProgramAnalysis an(p);
  for (Addr b = 0; b < 4; ++b) {
    EXPECT_TRUE(an.text_reachable(kTextBase + b)) << "byte " << b;
  }
}

TEST(ProgramAnalysis, ReachableIndirectCallSeedsAddressTakenCodeUnknown) {
  // No static edge leads into `helper`; only the callr can. Every forward
  // pass must still reach it, in an unknown state: unanchored FP depth
  // (no slot proof) in both depth passes, and reachable under the value
  // ranges. The call's continuation knows nothing about the depth either.
  const Program p = prog(R"(
.text
main:
    la r2, helper
    fldz
    callr r2
    fpop
    ldi r1, 0
    ret
helper:
    fldz
    fpop
    ret
)");
  const ProgramAnalysis an(p);
  EXPECT_TRUE(an.cfg().reachable_indirect());
  const Addr helper = addr_of(p, "helper");
  const Addr after_call = kTextBase + 16;  // lui, ori, fldz, callr
  for (const DepthBounds& b :
       {an.fpdepth().bounds_at(helper), an.fpdepth_ctx().bounds_at(helper),
        an.fpdepth().bounds_at(after_call),
        an.fpdepth_ctx().bounds_at(after_call)}) {
    EXPECT_TRUE(b.reachable);
    EXPECT_FALSE(b.anchored);
  }
  EXPECT_TRUE(an.text_reachable_refined(helper));
}

TEST(ProgramAnalysis, AddressTakenCodeWithoutIndirectTransferKeepsItsDepth) {
  // The same address is materialised, but nothing jumps through it: the
  // only way into `helper` is the direct call, at depth exactly 1.
  const Program p = prog(R"(
.text
main:
    la r2, helper
    fldz
    call helper
    fpop
    ldi r1, 0
    ret
helper:
    fldz
    fpop
    ret
)");
  const ProgramAnalysis an(p);
  EXPECT_FALSE(an.cfg().reachable_indirect());
  const Addr helper = addr_of(p, "helper");
  for (const DepthBounds& b :
       {an.fpdepth().bounds_at(helper), an.fpdepth_ctx().bounds_at(helper)}) {
    EXPECT_TRUE(b.reachable && b.anchored);
    EXPECT_EQ(b.lo, 1);
    EXPECT_EQ(b.hi, 1);
  }
  EXPECT_TRUE(an.fpu_slot_dead_at(helper, 6));
  EXPECT_FALSE(an.fpu_slot_dead_at(helper, 7));
}

// --- Shared fixpoint loops ----------------------------------------------

TEST(Dataflow, VisitsFifoQueuesOnlyOnChangeAndReadsTheLatestState) {
  // Passes that widen after a number of joins depend on this exact order:
  // FIFO pops, a node queued at most once at a time and only when its
  // state changed, and the state handed over as it stands at the pop.
  const std::vector<std::vector<std::uint32_t>> succ = {
      {1, 2}, {3}, {3, 1}, {1}};
  std::vector<int> state(4, -1);
  Dataflow df(state, [](int& cur, int s) {
    if (s <= cur || s > 4) return false;
    cur = s;
    return true;
  });
  std::vector<std::uint32_t> visits;
  std::vector<int> seen;
  df.flow(0, 0);
  df.solve([&](std::uint32_t id, int s) {
    visits.push_back(id);
    seen.push_back(s);
    for (std::uint32_t t : succ[id]) df.flow(t, s + 1);
  });
  EXPECT_EQ(visits, (std::vector<std::uint32_t>{0, 1, 2, 3, 1, 3}));
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 1, 2, 3, 4}));
  EXPECT_EQ(state, (std::vector<int>{0, 3, 1, 4}));
}

TEST(Dataflow, SummaryRoundsAreGaussSeidelWithABudget) {
  // Each summary copies its predecessor's: within one round a function
  // already sees the summaries updated before it, so one round settles
  // the chain and a second confirms it.
  std::vector<int> chain(3, 0);
  int calls = 0;
  EXPECT_TRUE(summary_rounds(chain, 8, [&](std::uint32_t f) {
    ++calls;
    return f == 0 ? 1 : chain[f - 1];
  }));
  EXPECT_EQ(chain, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(calls, 6);
  // A summary that never settles stops at the budget and says so.
  std::vector<int> grows(2, 0);
  calls = 0;
  EXPECT_FALSE(summary_rounds(grows, 5, [&](std::uint32_t f) {
    ++calls;
    return grows[f] + 1;
  }));
  EXPECT_EQ(calls, 10);
  EXPECT_EQ(grows, (std::vector<int>{5, 5}));
}

// --- Liveness ------------------------------------------------------------

TEST(Liveness, RegisterOverwrittenBeforeReadIsDead) {
  const Program p = prog(R"(
.text
main:
    ldi r2, 7
    ldi r3, 8
    add r1, r2, r3
    ret
)");
  const Cfg cfg(p);
  const Liveness live(cfg, DefUseModel::kSound);
  // At entry nothing user-visible is live: r2 and r3 are written before
  // read, r1 is written by the add.
  EXPECT_TRUE(live.dead_at(kTextBase, 1));
  EXPECT_TRUE(live.dead_at(kTextBase, 2));
  EXPECT_TRUE(live.dead_at(kTextBase, 3));
  // After `ldi r2` the pending add makes r2 live.
  EXPECT_FALSE(live.dead_at(kTextBase + 4, 2));
  // After the add, r1 is the exit code: the entry function's ret keeps it.
  EXPECT_FALSE(live.dead_at(kTextBase + 12, 1));
}

TEST(Liveness, MayLiveUnionAtJoin) {
  // r2 is read on the taken path only; at the branch it must be may-live.
  const Program p = prog(R"(
.text
main:
    beq r1, r1, use
    ldi r1, 0
    ret
use:
    mov r1, r2
    ret
)");
  const Cfg cfg(p);
  const Liveness live(cfg, DefUseModel::kSound);
  EXPECT_FALSE(live.dead_at(kTextBase, 2));
}

TEST(Liveness, RegisterUntouchedByCalleeFlowsThroughCall) {
  // r5 is set before the call and read after it; the callee never touches
  // it. Interprocedural liveness must carry r5 through the callee body —
  // and classify it dead inside the callee is wrong only if the callee
  // could be reached another way, which it can't here.
  const Program p = prog(R"(
.text
main:
    ldi r5, 42
    call fn
    add r1, r1, r5
    ret
fn:
    ldi r1, 1
    ret
)");
  const Cfg cfg(p);
  const Liveness live(cfg, DefUseModel::kSound);
  const Addr call_pc = kTextBase + 4;
  EXPECT_FALSE(live.dead_at(call_pc, 5)) << "live across the call";
  // Inside the callee r5 is still live (the return site reads it).
  EXPECT_FALSE(live.dead_at(addr_of(p, "fn"), 5));
  // r6 is never read anywhere: dead everywhere in this program.
  EXPECT_TRUE(live.dead_at(kTextBase, 6));
  EXPECT_TRUE(live.dead_at(addr_of(p, "fn"), 6));
}

TEST(Liveness, IndirectJumpKeepsEveryRegisterLive) {
  const Program p = prog(R"(
.text
main:
    la r2, fn
    jmpr r2
fn:
    ret
)");
  const Cfg cfg(p);
  const Liveness live(cfg, DefUseModel::kSound);
  // At the jmpr every GPR must be assumed live (unknown target).
  const Addr jmpr_pc = kTextBase + 8;
  for (unsigned r = 0; r < kNumGpr; ++r)
    EXPECT_FALSE(live.dead_at(jmpr_pc, r)) << "r" << r;
}

TEST(Liveness, OutsideCodeEverythingIsLive) {
  const Program p = prog(R"(
.text
main:
    ret
)");
  const Cfg cfg(p);
  const Liveness live(cfg, DefUseModel::kSound);
  EXPECT_EQ(live.live_in(0x1000), kAllGpr);
  EXPECT_FALSE(live.dead_at(0x1000, 3));
}

TEST(Liveness, SoundModelDoesNotLetSysDefineResult) {
  // Under kSound a syscall defs nothing, so a register that only `sys`
  // would overwrite stays live before it. Under kLint the result write
  // counts as a def.
  const Program p = prog(R"(
.text
main:
    sys 10
    mov r2, r1
    ret
)");
  const Cfg cfg(p);
  const Liveness sound(cfg, DefUseModel::kSound);
  const Liveness lint(cfg, DefUseModel::kLint);
  // sys 10 (clock) takes no args and writes r1. The `mov` reads r1, so
  // under kSound r1 is live at entry (sys may not write it on all paths);
  // under kLint the def kills it.
  EXPECT_FALSE(sound.dead_at(kTextBase, 1));
  EXPECT_TRUE(lint.dead_at(kTextBase, 1));
}

// --- Def/use table spot checks -------------------------------------------

TEST(DefUse, PushPopUseAndDefineStackPointer)  {
  const Program p = prog(R"(
.text
main:
    push r3
    pop r4
    ret
)");
  const Cfg cfg(p);
  const RegEffect push = instr_effect(cfg.word_at(kTextBase),
                                      DefUseModel::kSound);
  EXPECT_EQ(push.use, reg_bit(3) | reg_bit(kSp));
  EXPECT_EQ(push.def, reg_bit(kSp));
  const RegEffect pop = instr_effect(cfg.word_at(kTextBase + 4),
                                     DefUseModel::kSound);
  EXPECT_EQ(pop.use, reg_bit(kSp));
  EXPECT_EQ(pop.def, reg_bit(4) | reg_bit(kSp));
}

}  // namespace
}  // namespace fsim::svm::analysis
