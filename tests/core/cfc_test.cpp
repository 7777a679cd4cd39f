// Control-flow signature checking (§8.2 extension).
#include "core/cfc.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/app.hpp"
#include "simmpi/world.hpp"
#include "svm/assembler.hpp"
#include "svm/env.hpp"
#include "svm/isa.hpp"

namespace fsim::core {
namespace {

struct Proc {
  svm::Program program;
  svm::Machine machine;
  svm::BasicEnv env;
  ControlFlowChecker cfc;
  explicit Proc(const std::string& src)
      : program(svm::assemble(src)),
        machine(program, {}),
        env(machine),
        cfc(program, machine) {}
};

constexpr const char* kBranchy = R"(
.text
main:
    enter 16
    ldi r1, 0
    ldi r2, 0
loop:
    addi r2, r2, 1
    call helper
    add r1, r1, r2
    ldi r3, 10
    blt r2, r3, loop
    leave
    ret
helper:
    enter 0
    muli r2, r2, 1
    leave
    ret
)";

TEST(Cfc, CleanRunHasNoViolations) {
  Proc p(kBranchy);
  p.machine.step(100000);
  ASSERT_EQ(p.machine.state(), svm::RunState::kExited);
  EXPECT_FALSE(p.cfc.violated());
  EXPECT_GT(p.cfc.transfers_checked(), 50u);
}

TEST(Cfc, CleanAppRunsHaveNoViolations) {
  // End-to-end over every benchmark application: the model must produce
  // zero false positives across calls, branches, syscall retries and the
  // user <-> library boundary.
  for (const auto& name : apps::app_names()) {
    apps::App app = apps::make_app(name);
    svm::Program program = app.link();
    simmpi::World world(program, app.world);
    ControlFlowChecker cfc(program, world.machine(1));
    ASSERT_EQ(world.run(2'000'000'000ull), simmpi::JobStatus::kCompleted)
        << name;
    EXPECT_FALSE(cfc.violated())
        << name << ": " << (cfc.violated() ? cfc.violation()->kind : "");
  }
}

TEST(Cfc, DetectsBranchRetargeting) {
  Proc p(kBranchy);
  // Corrupt the blt offset (low bit of the imm16 field): the branch now
  // lands one instruction off — a valid address, an illegal edge.
  const svm::Symbol* main_sym = p.program.find_symbol("main");
  ASSERT_NE(main_sym, nullptr);
  // Find the blt instruction in text.
  const auto& img = p.program.image(svm::Segment::kText);
  for (std::size_t off = 0; off + 4 <= img.size(); off += 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, img.data() + off, 4);
    if (svm::decode(w).op == svm::Op::kBlt) {
      p.machine.memory().flip_bit(
          p.program.segment_base(svm::Segment::kText) +
              static_cast<svm::Addr>(off) + 2,
          0);  // low bit of imm16
      break;
    }
  }
  p.machine.step(100000);
  EXPECT_TRUE(p.cfc.violated());
  EXPECT_STREQ(p.cfc.violation()->kind, "edge");
}

TEST(Cfc, DetectsOpcodeTurnedIntoJump) {
  Proc p(kBranchy);
  // Turn the add (0x05) inside the loop into a jmp (0x26) by flipping
  // opcode bits; find an add first.
  const auto& img = p.program.image(svm::Segment::kText);
  const svm::Addr base = p.program.segment_base(svm::Segment::kText);
  for (std::size_t off = 0; off + 4 <= img.size(); off += 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, img.data() + off, 4);
    if (svm::decode(w).op == svm::Op::kAdd) {
      const std::uint32_t corrupted =
          (w & ~0xffu) | static_cast<std::uint32_t>(svm::Op::kJmp);
      p.machine.memory().poke32(base + static_cast<svm::Addr>(off), corrupted);
      break;
    }
  }
  p.machine.step(100000);
  EXPECT_TRUE(p.cfc.violated());
}

TEST(Cfc, DetectsCorruptedReturnAddress) {
  Proc p(kBranchy);
  // Run until inside helper, then corrupt the return address on the stack.
  const svm::Symbol* helper = p.program.find_symbol("helper");
  ASSERT_NE(helper, nullptr);
  while (p.machine.state() == svm::RunState::kReady &&
         p.machine.regs().pc != helper->address)
    p.machine.step(1);
  ASSERT_EQ(p.machine.state(), svm::RunState::kReady);
  p.machine.step(1);  // execute helper's enter so fp points at its frame
  // Return address sits at [fp+4].
  std::uint32_t ret = 0;
  ASSERT_TRUE(p.machine.memory().peek32(p.machine.regs().fp() + 4, ret));
  ASSERT_TRUE(p.machine.memory().poke32(p.machine.regs().fp() + 4, ret + 8));
  p.machine.step(100000);
  EXPECT_TRUE(p.cfc.violated());
  EXPECT_STREQ(p.cfc.violation()->kind, "return");
}

TEST(Cfc, PureDataFaultIsInvisible) {
  // CFC covers control flow only: a corrupted ALU operand that does not
  // change any transfer must not be flagged (and the run still "succeeds").
  Proc p(kBranchy);
  const auto& img = p.program.image(svm::Segment::kText);
  const svm::Addr base = p.program.segment_base(svm::Segment::kText);
  for (std::size_t off = 0; off + 4 <= img.size(); off += 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, img.data() + off, 4);
    const svm::Instr in = svm::decode(w);
    if (in.op == svm::Op::kMuli) {
      // Flip an immediate bit: r2 *= 1 becomes r2 *= 3.
      p.machine.memory().flip_bit(base + static_cast<svm::Addr>(off) + 2, 1);
      break;
    }
  }
  p.machine.step(100000);
  EXPECT_EQ(p.machine.state(), svm::RunState::kExited);
  EXPECT_FALSE(p.cfc.violated());
  EXPECT_NE(p.machine.exit_code(), 55);  // the data damage happened, though
}

// --- Static signature table (link-time CFC model) ------------------------

TEST(CfcSignatures, TableMatchesOnlineDecodeEverywhere) {
  // The link-time table and a decode of the CFG's words must agree on
  // every user-text instruction, for every bundled app: same flow class,
  // same direct-transfer target.
  for (const auto& name : apps::app_names()) {
    const svm::Program program = apps::make_app(name).link();
    const svm::analysis::Cfg cfg(program);
    const CfcSignatures sigs(program);
    EXPECT_EQ(sigs.text_base(), cfg.user_text_base()) << name;
    ASSERT_EQ(sigs.size(),
              (cfg.user_text_end() - cfg.user_text_base()) / 4);
    for (svm::Addr pc = cfg.user_text_base(); pc < cfg.user_text_end();
         pc += 4) {
      const CfcSignature* s = sigs.at(pc);
      ASSERT_NE(s, nullptr) << name;
      const std::uint32_t word = cfg.word_at(pc);
      EXPECT_EQ(s->kind, svm::analysis::flow_of(word)) << name;
      using svm::analysis::FlowKind;
      if (s->kind == FlowKind::kBranch || s->kind == FlowKind::kJump ||
          s->kind == FlowKind::kCall) {
        EXPECT_EQ(s->target,
                  svm::analysis::rel_target(pc, svm::decode(word)))
            << name;
      }
    }
    // Outside user text: no signature.
    EXPECT_EQ(sigs.at(cfg.user_text_base() - 4), nullptr);
    EXPECT_EQ(sigs.at(cfg.user_text_end()), nullptr);
    EXPECT_EQ(sigs.at(cfg.user_text_base() + 2), nullptr);
  }
}

TEST(CfcSignatures, StaticModeDetectsTheSameViolations) {
  // Same corrupted-branch scenario as DetectsBranchRetargeting, but with
  // the checker reading a table built outside it.
  svm::Program program = svm::assemble(kBranchy);
  const CfcSignatures sigs(program);
  svm::Machine machine(program, {});
  svm::BasicEnv env(machine);
  ControlFlowChecker cfc(program, machine, &sigs);
  const auto& img = program.image(svm::Segment::kText);
  const svm::Addr base = program.segment_base(svm::Segment::kText);
  for (std::size_t off = 0; off + 4 <= img.size(); off += 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, img.data() + off, 4);
    if (svm::decode(w).op == svm::Op::kBlt) {
      machine.memory().flip_bit(base + static_cast<svm::Addr>(off) + 2, 0);
      break;
    }
  }
  machine.step(100000);
  EXPECT_TRUE(cfc.violated());
  EXPECT_STREQ(cfc.violation()->kind, "edge");
}

TEST(CfcSignatures, SharedTableCleanAppRunsHaveNoViolations) {
  // End-to-end: one table shared by a checker on every rank of each
  // benchmark app (as the control-flow ablation runs them) must see a
  // full fault-free run without a single violation.
  for (const auto& name : apps::app_names()) {
    apps::App app = apps::make_app(name);
    svm::Program program = app.link();
    const CfcSignatures sigs(program);
    simmpi::World world(program, app.world);
    std::vector<std::unique_ptr<ControlFlowChecker>> checkers;
    for (int r = 0; r < world.size(); ++r)
      checkers.push_back(
          std::make_unique<ControlFlowChecker>(program, world.machine(r),
                                               &sigs));
    ASSERT_EQ(world.run(2'000'000'000ull), simmpi::JobStatus::kCompleted)
        << name;
    for (int r = 0; r < world.size(); ++r)
      EXPECT_FALSE(checkers[static_cast<std::size_t>(r)]->violated())
          << name << " rank " << r;
  }
}

TEST(Cfc, ViolationRecordsLocation) {
  Proc p(kBranchy);
  const auto& img = p.program.image(svm::Segment::kText);
  const svm::Addr base = p.program.segment_base(svm::Segment::kText);
  for (std::size_t off = 0; off + 4 <= img.size(); off += 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, img.data() + off, 4);
    if (svm::decode(w).op == svm::Op::kBlt) {
      p.machine.memory().flip_bit(base + static_cast<svm::Addr>(off) + 2, 2);
      break;
    }
  }
  p.machine.step(100000);
  ASSERT_TRUE(p.cfc.violated());
  const auto& v = *p.cfc.violation();
  EXPECT_GE(v.from, base);
  EXPECT_GT(v.at, 0u);
}

}  // namespace
}  // namespace fsim::core
