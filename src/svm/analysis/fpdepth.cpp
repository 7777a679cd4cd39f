#include "svm/analysis/fpdepth.hpp"

#include <algorithm>

#include "svm/analysis/dataflow.hpp"

namespace fsim::svm::analysis {

namespace {

constexpr int kMaxDepth = static_cast<int>(kNumFpr);

}  // namespace

DepthBounds depth_apply(DepthBounds s, const RegEffect& e) noexcept {
  if (e.fp_needs > s.lo) s.anchored = false;  // possible underflow
  int lo = s.lo + e.fp_delta;
  int hi = s.hi + e.fp_delta;
  if (hi > kMaxDepth) s.anchored = false;  // possible overflow
  lo = std::clamp(lo, 0, kMaxDepth);
  hi = std::clamp(hi, 0, kMaxDepth);
  if (!s.anchored) return DepthBounds::top();
  s.lo = static_cast<std::int8_t>(lo);
  s.hi = static_cast<std::int8_t>(hi);
  return s;
}

DepthBounds depth_join(const DepthBounds& a, const DepthBounds& b) noexcept {
  if (!a.reachable) return b;
  if (!b.reachable) return a;
  if (!(a.anchored && b.anchored)) return DepthBounds::top();
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi), true, true};
}

bool depth_flow_into(DepthBounds& cur, DepthBounds s) noexcept {
  s.reachable = true;
  const DepthBounds merged = depth_join(cur, s);
  if (merged == cur) return false;
  cur = merged;
  return true;
}

FpDepth::FpDepth(const Cfg& cfg)
    : cfg_(&cfg),
      block_in_(cfg.blocks().size()),
      instr_in_(cfg.num_instructions()) {
  solve();
  finalize();
}

void FpDepth::solve() {
  const Cfg& cfg = *cfg_;
  if (cfg.blocks().empty() || cfg.entry_block() == Cfg::kNoBlock) return;
  Dataflow df(block_in_, depth_flow_into);

  // Roots: the program entry starts from FPU reset (depth exactly 0).
  df.flow(cfg.entry_block(), DepthBounds{0, 0, true, true});

  // If some statically reachable block performs an indirect transfer, any
  // address-taken code address can be entered with an arbitrary depth; seed
  // TOP at the block containing each materialised code address. Without a
  // reachable indirect transfer, address-taken code is only enterable
  // through modeled direct edges and needs no seeding.
  if (cfg.reachable_indirect()) {
    for (Addr a : cfg.materialized()) {
      const std::uint32_t id = cfg.block_index_of(a);
      if (id != Cfg::kNoBlock) df.flow(id, DepthBounds::top());
    }
  }

  df.solve([&](std::uint32_t id, DepthBounds s) {
    const Block& b = cfg.block(id);
    for (Addr pc = b.begin; pc < b.end; pc += 4) {
      const std::uint32_t word = cfg.word_at(pc);
      if (aborting_sys(decode(word))) return;
      s = depth_apply(s, instr_effect(word, DefUseModel::kSound));
    }

    switch (b.term) {
      case FlowKind::kCall:
        if (b.call_target >= 0 && !b.call_outside && !b.bad_target) {
          // The callee entry sees the caller's post-body state; the return
          // site is seeded when the callee's ret blocks are processed.
          df.flow(static_cast<std::uint32_t>(b.call_target), s);
        } else {
          // Unknown callee: assume nothing about the depth it returns with.
          for (std::uint32_t t : b.succ) df.flow(t, DepthBounds::top());
        }
        break;
      case FlowKind::kIndirectCall:
        // Possible callees are covered by the address-taken TOP seeds.
        for (std::uint32_t t : b.succ) df.flow(t, DepthBounds::top());
        break;
      case FlowKind::kRet:
        // Context-insensitive return: flow to every return site of every
        // function whose closure contains this ret.
        for (std::uint32_t fn_id : cfg.functions_of(id)) {
          for (std::uint32_t t : cfg.functions()[fn_id].return_sites)
            df.flow(t, s);
        }
        break;
      case FlowKind::kIndirectJump:  // targets covered by TOP seeds
      case FlowKind::kIllegal:       // traps; nothing flows past it
        break;
      default:
        for (std::uint32_t t : b.succ) df.flow(t, s);
        break;
    }
  });
}

void FpDepth::finalize() {
  const Cfg& cfg = *cfg_;
  int max_hi = 0;
  bool all_anchored = true;
  bool any_reachable = false;

  for (std::uint32_t id = 0; id < cfg.blocks().size(); ++id) {
    if (!block_in_[id].reachable) continue;
    const Block& b = cfg.block(id);
    DepthBounds s = block_in_[id];
    bool issued = false;  // depths past a block's first issue are junk
    for (Addr pc = b.begin; pc < b.end; pc += 4) {
      const std::uint32_t index = cfg.instr_index(pc);
      if (index != Cfg::kNoBlock)
        instr_in_[index] = depth_join(instr_in_[index], s);
      any_reachable = true;
      if (s.anchored) {
        max_hi = std::max(max_hi, static_cast<int>(s.hi));
      } else {
        all_anchored = false;
      }
      const std::uint32_t word = cfg.word_at(pc);
      const Instr in = decode(word);
      if (aborting_sys(in)) break;
      const RegEffect e = instr_effect(word, DefUseModel::kSound);
      if (s.anchored && !issued) {
        if (e.fp_needs > s.hi) {
          issues_.push_back(
              {true, "fp-static-underflow", pc,
               std::string(mnemonic(in.op)) + " needs FP-stack depth " +
                   std::to_string(e.fp_needs) + " but every reaching path " +
                   "has at most " + std::to_string(s.hi)});
          issued = true;
        } else if (s.lo + e.fp_delta > kMaxDepth) {
          issues_.push_back(
              {true, "fp-static-overflow", pc,
               std::string(mnemonic(in.op)) + " pushes the FP stack to " +
                   std::to_string(s.lo + e.fp_delta) + " slots on every " +
                   "reaching path (absolute depth, including callers)"});
          issued = true;
        } else if (s.hi + e.fp_delta > kMaxDepth) {
          issues_.push_back(
              {false, "fp-static-maybe-overflow", pc,
               std::string(mnemonic(in.op)) + " may push the FP stack to " +
                   std::to_string(s.hi + e.fp_delta) + " slots (entry depth " +
                   "[" + std::to_string(s.lo) + "," + std::to_string(s.hi) +
                   "])"});
          issued = true;
        }
      }
      s = depth_apply(s, e);
    }
  }

  // A function whose reachable, anchored entry depth differs across call
  // sites is suspicious if it actually touches the FP stack: the same body
  // runs at different absolute depths, so its headroom depends on the
  // caller.
  for (const Cfg::Function& fn : cfg.functions()) {
    if (fn.entry == Cfg::kNoBlock || fn.entry >= block_in_.size()) continue;
    const DepthBounds s = block_in_[fn.entry];
    if (!s.reachable || !s.anchored || s.lo == s.hi) continue;
    if (fn.entry == cfg.entry_block()) continue;
    bool touches_fp = false;
    for (std::uint32_t bid : fn.blocks) {
      const Block& b = cfg.block(bid);
      for (Addr pc = b.begin; pc < b.end && !touches_fp; pc += 4) {
        const RegEffect e =
            instr_effect(cfg.word_at(pc), DefUseModel::kSound);
        touches_fp = e.fp_delta != 0 || e.fp_needs != 0;
      }
      if (touches_fp) break;
    }
    if (!touches_fp) continue;
    issues_.push_back(
        {false, "fp-call-depth-imbalance", cfg.block(fn.entry).begin,
         "called at FP-stack depths between " + std::to_string(s.lo) +
             " and " + std::to_string(s.hi) +
             " while operating on the FP stack"});
  }

  std::sort(issues_.begin(), issues_.end(),
            [](const FpDepthIssue& a, const FpDepthIssue& b) {
              if (a.addr != b.addr) return a.addr < b.addr;
              return a.code < b.code;
            });

  max_depth_ = static_cast<unsigned>(all_anchored ? max_hi : kMaxDepth);
  always_empty_ =
      (any_reachable && all_anchored)
          ? kNumFpr - static_cast<unsigned>(std::min(max_hi, kMaxDepth))
          : 0;
}

DepthBounds FpDepth::bounds_at(Addr pc) const noexcept {
  const std::uint32_t index = cfg_->instr_index(pc);
  if (index == Cfg::kNoBlock) return DepthBounds{0, kNumFpr, false, false};
  return instr_in_[index];
}

bool FpDepth::slot_empty_at(Addr pc, unsigned phys) const noexcept {
  return bounds_at(pc).slot_empty(phys);
}

}  // namespace fsim::svm::analysis
