// Tests for the `fsim lint` diagnostics engine: crafted-defect programs
// must produce the expected errors, the four bundled apps must gate clean,
// and the text rendering is locked by a golden-output test.
#include <gtest/gtest.h>

#include <string>

#include "apps/app.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/assembler.hpp"

namespace fsim::svm::analysis {
namespace {

LintResult lint(const Program& p, const LintOptions& opts = {}) {
  return run_lint(ProgramAnalysis(p), opts);
}

bool has_code(const LintResult& r, const std::string& code) {
  for (const auto& d : r.diagnostics)
    if (d.code == code) return true;
  return false;
}

// --- Errors on crafted-defect programs -----------------------------------

TEST(Lint, CleanProgramHasNoDiagnostics) {
  const LintResult r = lint(assemble(R"(
.text
main:
    ldi r1, 0
    ret
)"));
  EXPECT_EQ(r.errors, 0);
  EXPECT_EQ(r.warnings, 0);
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Lint, FallingOffTheSegmentEndIsAnError) {
  const LintResult r = lint(assemble(R"(
.text
main:
    ldi r1, 0
    addi r1, r1, 1
)"));
  EXPECT_GT(r.errors, 0);
  EXPECT_TRUE(has_code(r, "fall-off-end"));
}

TEST(Lint, ReachableIllegalOpcodeIsAnError) {
  // `.word` in .text plants a raw word; opcode 0x00 is undefined.
  const LintResult r = lint(assemble(R"(
.text
main:
    .word 0x00000000
    ret
)"));
  EXPECT_GT(r.errors, 0);
  EXPECT_TRUE(has_code(r, "illegal-opcode"));
}

TEST(Lint, FpStackUnderflowIsAnError) {
  // faddp needs two operands on an empty FP stack.
  const LintResult r = lint(assemble(R"(
.text
main:
    ldi r1, 0
    faddp
    ret
)"));
  EXPECT_GT(r.errors, 0);
  EXPECT_TRUE(has_code(r, "fp-underflow"));
}

TEST(Lint, FrameImbalanceIsAnError) {
  // enter with no matching leave before ret.
  const LintResult r = lint(assemble(R"(
.text
main:
    enter 16
    ret
)"));
  EXPECT_GT(r.errors, 0);
  EXPECT_TRUE(has_code(r, "frame-imbalance"));
}

// --- Warnings ------------------------------------------------------------

TEST(Lint, UnreachableFunctionIsAWarningAndSuppressible) {
  const std::string src = R"(
.text
main:
    ldi r1, 0
    ret
cold_helper:
    ldi r1, 1
    ret
)";
  const LintResult plain = lint(assemble(src));
  EXPECT_EQ(plain.errors, 0);
  EXPECT_GT(plain.warnings, 0);
  EXPECT_TRUE(has_code(plain, "unreachable"));

  LintOptions opts;
  opts.suppress = {"cold_"};
  const LintResult quiet = lint(assemble(src), opts);
  EXPECT_EQ(quiet.errors, 0);
  EXPECT_EQ(quiet.warnings, 0);
  EXPECT_GT(quiet.suppressed, 0);
}

TEST(Lint, WriteOnlyDataSymbolIsAWarning) {
  const LintResult r = lint(assemble(R"(
.text
main:
    la r2, sink
    ldi r3, 1
    stw [r2], r3
    ret
.data
sink:
    .word 0
)"));
  EXPECT_EQ(r.errors, 0);
  EXPECT_TRUE(has_code(r, "write-only-symbol"));
}

TEST(Lint, BssReadBeforeAnyWriteIsAWarning) {
  const LintResult r = lint(assemble(R"(
.text
main:
    la r2, buf
    ldw r1, [r2]
    ret
.bss
buf:
    .space 4
)"));
  EXPECT_EQ(r.errors, 0);
  EXPECT_TRUE(has_code(r, "bss-read-never-written"));
}

TEST(Lint, RangeDeadBranchIsAWarningAndSuppressible) {
  // `gate` is a tracked constant-zero word, so the value-range analysis
  // proves the beq always taken and flags the statically dead arm.
  const std::string src = R"(
.text
main:
    la r2, gate
    ldw r2, [r2]
    ldi r3, 0
    beq r2, r3, off
    ldi r1, 1
off:
    ldi r1, 0
    ret
.data
gate:
    .word 0
)";
  const LintResult plain = lint(assemble(src));
  EXPECT_EQ(plain.errors, 0);
  EXPECT_TRUE(has_code(plain, "range-dead-branch"));

  LintOptions opts;
  opts.suppress = {"main"};
  const LintResult quiet = lint(assemble(src), opts);
  EXPECT_FALSE(has_code(quiet, "range-dead-branch"));
  EXPECT_GT(quiet.suppressed, 0);
}

TEST(Lint, RangeStoreOobIsAWarning) {
  // A 4-byte store at buf+4 runs two bytes past the 6-byte symbol.
  const LintResult r = lint(assemble(R"(
.text
main:
    la r2, buf
    ldi r3, 7
    stw [r2+4], r3
    ldi r2, 0
    ret
.bss
buf:
    .space 6
)"));
  EXPECT_EQ(r.errors, 0);
  EXPECT_TRUE(has_code(r, "range-store-oob"));
}

TEST(Lint, RangeChecksAppearInJson) {
  const LintResult r = lint(assemble(R"(
.text
main:
    la r2, gate
    ldw r2, [r2]
    ldi r3, 0
    bne r2, r3, on
    ldi r1, 0
on:
    ret
.data
gate:
    .word 0
)"));
  EXPECT_TRUE(has_code(r, "range-dead-branch"));
  const std::string js = lint_json(r, "crafted");
  EXPECT_NE(js.find("\"range-dead-branch\""), std::string::npos);
  EXPECT_NE(js.find("is never taken"), std::string::npos);
}

// --- Symbol access scan --------------------------------------------------

TEST(Lint, SymbolAccessScanClassifiesReadAndWrite) {
  const Program p = assemble(R"(
.text
main:
    la r2, counter
    ldw r1, [r2]
    addi r1, r1, 1
    stw [r2], r1
    ret
.data
counter:
    .word 0
)");
  const Cfg cfg(p);
  const auto access =
      scan_symbol_access(cfg, Liveness(cfg, DefUseModel::kSound));
  Addr counter = 0;
  for (const auto& s : p.symbols())
    if (s.name == "counter") counter = s.address;
  ASSERT_NE(counter, 0u);
  auto it = access.find(counter);
  ASSERT_NE(it, access.end());
  EXPECT_TRUE(it->second.read);
  EXPECT_TRUE(it->second.written);
}

// --- Golden output -------------------------------------------------------

TEST(Lint, GoldenTextRendering) {
  // One error and one warning with fixed addresses: the rendering (order,
  // severity column, hex addresses, symbol attribution, summary line) is
  // part of the CLI contract.
  const LintResult r = lint(assemble(R"(
.text
main:
    ldi r1, 0
    jmp go
dead_fn:
    ldi r1, 1
    ret
go:
    enter 8
    ret
)"));
  const std::string got = format_lint(r, "crafted");
  const std::string want =
      "lint crafted:\n"
      "  error    0x08048014  frame-imbalance [main]: "
      "ret with enter/leave depth 1\n"
      "  warning  0x08048008  unreachable [dead_fn]: "
      "2 unreachable instructions\n"
      "  1 error, 1 warning\n";
  EXPECT_EQ(got, want);
}

// --- The four bundled apps gate clean ------------------------------------

TEST(Lint, AllBundledAppsLintCleanWithTheirSuppressions) {
  std::vector<std::string> names = apps::app_names();
  names.push_back("jacobi");
  for (const auto& name : names) {
    const apps::App app = apps::make_app(name);
    LintOptions opts;
    opts.suppress = app.lint_suppress;
    const LintResult r = lint(app.link(), opts);
    EXPECT_EQ(r.errors, 0) << name;
    EXPECT_EQ(r.warnings, 0) << name;
  }
}

}  // namespace
}  // namespace fsim::svm::analysis
