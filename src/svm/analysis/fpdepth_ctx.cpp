#include "svm/analysis/fpdepth_ctx.hpp"

#include <algorithm>

#include "svm/analysis/dataflow.hpp"

namespace fsim::svm::analysis {

namespace {

constexpr int kMaxDepth = static_cast<int>(kNumFpr);

std::int8_t clamp_depth(int d) {
  return static_cast<std::int8_t>(std::clamp(d, 0, kMaxDepth));
}

/// Relative depth interval during summary construction (entry = 0; can dip
/// below zero when a function consumes caller-owned slots).
struct Rel {
  bool reach = false;
  int lo = 0, hi = 0;
};

bool rel_flow_into(Rel& cur, const Rel& s) {
  if (!cur.reach) {
    cur = s;
    cur.reach = true;
    return true;
  }
  const int lo = std::min(cur.lo, s.lo), hi = std::max(cur.hi, s.hi);
  if (lo == cur.lo && hi == cur.hi) return false;
  cur.lo = lo;
  cur.hi = hi;
  return true;
}

/// One interior (intraprocedural) absolute fixpoint of `fn` from
/// `entry_state`, applying callee summaries at call terminators. Reports
/// the pre-call state of every resolvable call site through `callee_seen`
/// and, when `instr_in` is given, joins the per-instruction states into it.
void interior_walk(
    const Cfg& cfg, const std::vector<FpDepthCtx::FnSummary>& summaries,
    const Cfg::Function& fn, const DepthBounds& entry_state,
    std::vector<std::pair<std::uint32_t, DepthBounds>>* callee_seen,
    std::vector<DepthBounds>* instr_in) {
  std::vector<DepthBounds> in(fn.blocks.size());
  Dataflow df(in, depth_flow_into);
  auto flow = [&](std::uint32_t block_id, const DepthBounds& s) {
    const std::uint32_t li = fn.local_index(block_id);
    if (li != Cfg::kNoBlock) df.flow(li, s);  // else outside the closure
  };

  flow(fn.entry, entry_state);
  // The same seeding as FpDepth: with a reachable indirect transfer
  // anywhere, any materialised code address can be entered at arbitrary
  // depth.
  if (cfg.reachable_indirect()) {
    for (Addr a : cfg.materialized()) {
      const std::uint32_t id = cfg.block_index_of(a);
      if (id != Cfg::kNoBlock) flow(id, DepthBounds::top());
    }
  }

  df.solve([&](std::uint32_t li, DepthBounds s) {
    const Block& b = cfg.block(fn.blocks[li]);
    for (Addr pc = b.begin; pc < b.end; pc += 4) {
      const std::uint32_t word = cfg.word_at(pc);
      if (instr_in != nullptr) {
        const std::uint32_t index = cfg.instr_index(pc);
        if (index != Cfg::kNoBlock)
          (*instr_in)[index] = depth_join((*instr_in)[index], s);
      }
      if (aborting_sys(decode(word))) return;
      s = depth_apply(s, instr_effect(word, DefUseModel::kSound));
    }

    switch (b.term) {
      case FlowKind::kCall: {
        const std::uint32_t callee = cfg.callee_of(fn.blocks[li]);
        if (callee == Cfg::kNoBlock) {
          // Unknown callee: assume nothing about the returned depth.
          for (std::uint32_t t : b.succ) flow(t, DepthBounds::top());
          break;
        }
        if (callee_seen != nullptr) callee_seen->emplace_back(callee, s);
        const FpDepthCtx::FnSummary& g = summaries[callee];
        // TOP unless the summary composes at this context: a possible
        // under/overflow inside the callee leaves nothing known.
        DepthBounds post = DepthBounds::top();
        if (s.anchored && g.valid && g.needs <= s.lo &&
            s.hi + g.peak <= kMaxDepth) {
          if (!g.has_ret) break;  // the callee aborts on every path
          post = {clamp_depth(s.lo + g.dlo), clamp_depth(s.hi + g.dhi), true,
                  true};
        }
        for (std::uint32_t t : b.succ) flow(t, post);
        break;
      }
      case FlowKind::kIndirectCall:
        // Possible callees are covered by the address-taken TOP seeds.
        for (std::uint32_t t : b.succ) flow(t, DepthBounds::top());
        break;
      case FlowKind::kRet:        // callers apply this function's summary
      case FlowKind::kIndirectJump:  // targets covered by TOP seeds
      case FlowKind::kIllegal:       // traps; nothing flows past it
        break;
      default:
        for (std::uint32_t t : b.succ) flow(t, s);
        break;
    }
  });
}

}  // namespace

FpDepthCtx::FpDepthCtx(const Cfg& cfg)
    : cfg_(&cfg),
      summaries_(cfg.functions().size()),
      entry_in_(cfg.functions().size()),
      instr_in_(cfg.num_instructions()) {
  summarize_all();
  solve_entries();
  finalize();
}

void FpDepthCtx::summarize_all() {
  // 0 = unvisited, 1 = on the DFS stack (recursion), 2 = done.
  std::vector<std::uint8_t> state(cfg_->functions().size(), 0);
  for (std::uint32_t f = 0; f < cfg_->functions().size(); ++f)
    summarize(f, state);
}

bool FpDepthCtx::summarize(std::uint32_t fn_idx,
                           std::vector<std::uint8_t>& state) {
  if (state[fn_idx] == 2) return summaries_[fn_idx].valid;
  if (state[fn_idx] == 1) return false;  // recursion: not composable
  state[fn_idx] = 1;

  const Cfg& cfg = *cfg_;
  const Cfg::Function& fn = cfg.functions()[fn_idx];

  // Resolve callee summaries first (DFS); any unresolvable or invalid
  // callee, indirect transfer or fall-off-the-end makes this function
  // unsummarizable — callers then fall back to the insensitive analysis.
  bool ok = fn.entry != Cfg::kNoBlock;
  for (std::uint32_t id : fn.blocks) {
    const Block& b = cfg.block(id);
    if (b.falls_off_end) ok = false;
    switch (b.term) {
      case FlowKind::kIndirectCall:
      case FlowKind::kIndirectJump:
        ok = false;
        break;
      case FlowKind::kCall: {
        const std::uint32_t callee = cfg.callee_of(id);
        if (callee == Cfg::kNoBlock || !summarize(callee, state)) ok = false;
        break;
      }
      default:
        break;
    }
    if (!ok) break;
  }

  FnSummary sum;
  if (ok) {
    // Intraprocedural fixpoint over *relative* depth intervals. Entry
    // depth is unknown here, so the interval is unclamped and may dip
    // below zero; anything outside [-8, 8] is dynamically impossible for
    // a balanced function and voids the summary. Every call in the body
    // resolved above, so cfg.callee_of names a summarized function.
    std::vector<Rel> in(fn.blocks.size());
    Dataflow df(in, rel_flow_into);
    auto flow = [&](std::uint32_t block_id, const Rel& s) {
      const std::uint32_t li = fn.local_index(block_id);
      if (li != Cfg::kNoBlock) df.flow(li, s);
    };
    flow(fn.entry, Rel{true, 0, 0});

    bool ret_seen = false;
    int rlo = 0, rhi = 0;
    df.solve([&](std::uint32_t li, Rel s) {
      if (!ok) return;
      const Block& b = cfg.block(fn.blocks[li]);
      for (Addr pc = b.begin; pc < b.end; pc += 4) {
        const std::uint32_t word = cfg.word_at(pc);
        if (aborting_sys(decode(word))) return;
        const RegEffect e = instr_effect(word, DefUseModel::kSound);
        s.lo += e.fp_delta;
        s.hi += e.fp_delta;
        if (s.lo < -kMaxDepth || s.hi > kMaxDepth) {
          ok = false;
          return;
        }
      }

      if (b.term == FlowKind::kCall) {
        const FnSummary& g = summaries_[cfg.callee_of(fn.blocks[li])];
        if (!g.has_ret) return;  // the callee never returns
        s.lo += g.dlo;
        s.hi += g.dhi;
        if (s.lo < -kMaxDepth || s.hi > kMaxDepth) {
          ok = false;
          return;
        }
        for (std::uint32_t t : b.succ) flow(t, s);
      } else if (b.term == FlowKind::kRet) {
        rlo = ret_seen ? std::min(rlo, s.lo) : s.lo;
        rhi = ret_seen ? std::max(rhi, s.hi) : s.hi;
        ret_seen = true;
      } else if (b.term != FlowKind::kIllegal) {  // traps: nothing flows on
        for (std::uint32_t t : b.succ) flow(t, s);
      }
    });

    if (ok) {
      // Second pass over the stable states: entry-depth requirement and
      // peak relative height, composing callee summaries at call sites.
      int needs = 0, peak = 0;
      for (std::uint32_t li = 0; li < fn.blocks.size(); ++li) {
        if (!in[li].reach) continue;
        const Block& b = cfg.block(fn.blocks[li]);
        Rel s = in[li];
        for (Addr pc = b.begin; pc < b.end; pc += 4) {
          const std::uint32_t word = cfg.word_at(pc);
          if (aborting_sys(decode(word))) break;
          const RegEffect e = instr_effect(word, DefUseModel::kSound);
          needs = std::max(needs, e.fp_needs - s.lo);
          s.lo += e.fp_delta;
          s.hi += e.fp_delta;
          peak = std::max(peak, s.hi);
        }
        if (b.term == FlowKind::kCall) {
          const FnSummary& g = summaries_[cfg.callee_of(fn.blocks[li])];
          needs = std::max(needs, g.needs - s.lo);
          peak = std::max(peak, s.hi + g.peak);
        }
      }
      sum.valid = true;
      sum.has_ret = ret_seen;
      sum.dlo = static_cast<std::int8_t>(std::clamp(rlo, -kMaxDepth, kMaxDepth));
      sum.dhi = static_cast<std::int8_t>(std::clamp(rhi, -kMaxDepth, kMaxDepth));
      sum.needs = clamp_depth(needs);
      sum.peak = clamp_depth(peak);
    }
  }

  summaries_[fn_idx] = sum;
  state[fn_idx] = 2;
  return sum.valid;
}

void FpDepthCtx::solve_entries() {
  const Cfg& cfg = *cfg_;
  if (cfg.functions().empty() || cfg.entry_block() == Cfg::kNoBlock) return;
  Dataflow df(entry_in_, depth_flow_into);

  const std::uint32_t main_fn = cfg.function_starting_at(cfg.entry_block());
  if (main_fn != Cfg::kNoBlock) df.flow(main_fn, DepthBounds{0, 0, true, true});
  if (cfg.reachable_indirect()) {
    for (std::uint32_t f = 0; f < cfg.functions().size(); ++f)
      if (cfg.functions()[f].address_taken) df.flow(f, DepthBounds::top());
  }

  df.solve([&](std::uint32_t f, const DepthBounds& entry) {
    std::vector<std::pair<std::uint32_t, DepthBounds>> callees;
    interior_walk(cfg, summaries_, cfg.functions()[f], entry, &callees,
                  nullptr);
    for (const auto& [g, s] : callees) df.flow(g, s);
  });
}

void FpDepthCtx::finalize() {
  const Cfg& cfg = *cfg_;
  for (std::uint32_t f = 0; f < cfg.functions().size(); ++f) {
    if (!entry_in_[f].reachable) continue;
    interior_walk(cfg, summaries_, cfg.functions()[f], entry_in_[f], nullptr,
                  &instr_in_);
  }
}

DepthBounds FpDepthCtx::bounds_at(Addr pc) const noexcept {
  const std::uint32_t index = cfg_->instr_index(pc);
  if (index == Cfg::kNoBlock) return DepthBounds{0, kNumFpr, false, false};
  return instr_in_[index];
}

bool FpDepthCtx::slot_empty_at(Addr pc, unsigned phys) const noexcept {
  return bounds_at(pc).slot_empty(phys);
}

}  // namespace fsim::svm::analysis
