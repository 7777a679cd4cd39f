#include "core/cfc.hpp"

#include <cstring>

#include "svm/analysis/cfg.hpp"
#include "svm/isa.hpp"

namespace fsim::core {

using svm::Addr;
using svm::Segment;
using svm::analysis::FlowKind;

CfcSignatures::CfcSignatures(const svm::Program& program) {
  base_ = program.segment_base(Segment::kText);
  const auto& img = program.image(Segment::kText);
  end_ = base_ + static_cast<Addr>(img.size());
  sigs_.reserve(img.size() / 4);
  for (Addr pc = base_; pc < end_; pc += 4) {
    std::uint32_t word = 0;
    std::memcpy(&word, img.data() + (pc - base_), 4);
    CfcSignature s;
    s.kind = svm::analysis::flow_of(word);
    switch (s.kind) {
      case FlowKind::kBranch:
      case FlowKind::kJump:
      case FlowKind::kCall:
        s.target = svm::analysis::rel_target(pc, svm::decode(word));
        break;
      default:
        break;
    }
    sigs_.push_back(s);
  }
}

const CfcSignature* CfcSignatures::at(Addr pc) const noexcept {
  if (pc < base_ || pc >= end_ || pc % 4 != 0) return nullptr;
  return &sigs_[(pc - base_) / 4];
}

ControlFlowChecker::ControlFlowChecker(const svm::Program& program,
                                       svm::Machine& machine,
                                       const CfcSignatures* signatures)
    : machine_(&machine), signatures_(signatures) {
  text_base_ = program.segment_base(Segment::kText);
  text_size_ =
      static_cast<std::uint32_t>(program.image(Segment::kText).size());
  lib_base_ = program.segment_base(Segment::kLibText);
  lib_size_ = program.segment_size(Segment::kLibText);
  if (signatures_ == nullptr) {
    owned_sigs_ = std::make_unique<CfcSignatures>(program);
    signatures_ = owned_sigs_.get();
  }
  machine.memory().set_observer(this);
}

void ControlFlowChecker::flag(Addr to, const char* kind) {
  if (violation_) return;  // keep the first violation
  violation_ = Violation{prev_pc_, to, machine_->instructions(), kind};
}

void ControlFlowChecker::on_fetch(Addr addr) {
  const bool in_user = addr >= text_base_ && addr - text_base_ < text_size_;
  const bool in_lib = addr >= lib_base_ && addr - lib_base_ < lib_size_;

  if (!have_prev_) {
    have_prev_ = true;
    prev_pc_ = addr;
    return;
  }
  const Addr prev = prev_pc_;
  prev_pc_ = addr;

  const bool prev_user = prev >= text_base_ && prev - text_base_ < text_size_;

  if (!prev_user) {
    // Opaque library region: internal flow is not modelled, but the return
    // into user text must land on the address the user's call pushed.
    if (in_user) {
      ++checked_;
      if (shadow_stack_.empty() || shadow_stack_.back() != addr) {
        flag(addr, "return");
      } else {
        shadow_stack_.pop_back();
      }
    }
    return;
  }

  // prev is user text: derive the legal successor set from the ORIGINAL
  // encoding (the pre-generated signature database).
  ++checked_;
  if (!in_user && !in_lib) {
    flag(addr, "target-alignment");
    return;
  }
  // The legal-successor model is the same flow_of/rel_target classification
  // the static analyzer builds its CFG from (svm/analysis/cfg.hpp), so the
  // run-time checker and the offline analysis can never disagree. A
  // misaligned pc has no signature and no legal successor.
  const CfcSignature* sig = signatures_->at(prev);
  if (sig == nullptr) {
    flag(addr, "edge");
    return;
  }
  const FlowKind kind = sig->kind;
  const Addr rel_target = sig->target;
  const Addr fallthrough = prev + 4;

  auto ok_edge = [&](bool ok) {
    if (!ok) flag(addr, "edge");
  };

  switch (kind) {
    case FlowKind::kBranch:
      ok_edge(addr == fallthrough || addr == rel_target);
      break;
    case FlowKind::kJump:
      ok_edge(addr == rel_target);
      break;
    case FlowKind::kCall:
      if (addr != rel_target) {
        flag(addr, "edge");
        break;
      }
      if (shadow_stack_.size() < 1024) shadow_stack_.push_back(fallthrough);
      break;
    case FlowKind::kIndirectCall:
      // Indirect call: any code address is a legal target in this (coarse)
      // model, but the return site is still tracked precisely.
      if (shadow_stack_.size() < 1024) shadow_stack_.push_back(fallthrough);
      break;
    case FlowKind::kIndirectJump:
      break;  // indirect jump: coarse model accepts any code target
    case FlowKind::kRet:
      if (shadow_stack_.empty() || shadow_stack_.back() != addr) {
        flag(addr, "return");
      } else {
        shadow_stack_.pop_back();
      }
      break;
    case FlowKind::kSys:
      // A blocked syscall re-fetches its own pc when resumed.
      ok_edge(addr == fallthrough || addr == prev);
      break;
    case FlowKind::kIllegal:
    case FlowKind::kFallthrough:
      ok_edge(addr == fallthrough);
      break;
  }
}

}  // namespace fsim::core
