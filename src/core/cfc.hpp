// Control-flow checking (paper §8.2, after Oh/Shirvani/McCluskey,
// "Control flow checking by software signatures").
//
// A pre-generated control-flow model is derived from the *original* program
// image: for every user-text instruction the legal successor set is known
// statically (fall-through, branch target, call target), and return
// addresses are tracked with a shadow stack. At run time every instruction
// fetch is checked against the model; a text-segment bit flip that turns an
// add into a jump, retargets a branch, or corrupts a return address sends
// execution along an edge the model does not contain — a *control-flow
// violation* — often well before the machine traps or corrupts output.
//
// The checker is a pure monitor (it never alters execution), so a campaign
// can measure exactly what coverage and latency a CFC scheme would have
// bought, as the paper's related-work section contemplates.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "svm/analysis/cfg.hpp"
#include "svm/machine.hpp"
#include "svm/program.hpp"

namespace fsim::core {

/// Legal-successor record of one user-text instruction: its flow class and,
/// for direct transfers (branch/jump/call), the encoded target address.
struct CfcSignature {
  svm::analysis::FlowKind kind = svm::analysis::FlowKind::kFallthrough;
  svm::Addr target = 0;  // valid for kBranch / kJump / kCall only
};

/// The control-flow signature database, derived at link time from the same
/// flow_of/rel_target classification the CFG's block successor lists are
/// built from (svm/analysis/cfg.hpp) — one record per user-text
/// instruction, so the checker never decodes at run time.
class CfcSignatures {
 public:
  explicit CfcSignatures(const svm::Program& program);

  /// Signature of the instruction at `pc`; nullptr outside user text.
  const CfcSignature* at(svm::Addr pc) const noexcept;

  std::size_t size() const noexcept { return sigs_.size(); }
  svm::Addr text_base() const noexcept { return base_; }

 private:
  std::vector<CfcSignature> sigs_;
  svm::Addr base_ = 0;
  svm::Addr end_ = 0;
};

class ControlFlowChecker : public svm::AccessObserver {
 public:
  /// Attaches itself as the machine's memory observer and checks every
  /// fetch against a link-time signature table of the (uncorrupted)
  /// program image, with no instruction decode on the hot path. The table
  /// is `signatures` when given (it must outlive the checker and be built
  /// from the same image, so many checkers can share one); otherwise the
  /// checker builds and owns one.
  ControlFlowChecker(const svm::Program& program, svm::Machine& machine,
                     const CfcSignatures* signatures = nullptr);

  struct Violation {
    svm::Addr from = 0;        // pc of the instruction that transferred
    svm::Addr to = 0;          // where execution actually went
    std::uint64_t at = 0;      // machine instruction count
    const char* kind = "";     // "edge" | "return" | "target-alignment"
  };

  bool violated() const noexcept { return violation_.has_value(); }
  const std::optional<Violation>& violation() const noexcept {
    return violation_;
  }
  std::uint64_t transfers_checked() const noexcept { return checked_; }

  // AccessObserver:
  void on_fetch(svm::Addr addr) override;
  void on_load(svm::Addr, unsigned, svm::Segment) override {}
  void on_store(svm::Addr, unsigned, svm::Segment) override {}

 private:
  void flag(svm::Addr to, const char* kind);

  svm::Machine* machine_;
  svm::Addr text_base_ = 0;             // user text
  std::uint32_t text_size_ = 0;
  svm::Addr lib_base_ = 0;              // library text (not modelled; calls
  std::uint32_t lib_size_ = 0;          //  into it are treated as opaque)
  std::unique_ptr<CfcSignatures> owned_sigs_;  // when none was passed in
  const CfcSignatures* signatures_ = nullptr;
  std::vector<svm::Addr> shadow_stack_;
  bool have_prev_ = false;
  svm::Addr prev_pc_ = 0;
  std::optional<Violation> violation_;
  std::uint64_t checked_ = 0;
};

}  // namespace fsim::core
