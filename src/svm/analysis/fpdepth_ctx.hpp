// Context-sensitive FP-stack depth analysis (the fp-ctx ladder rung).
//
// The context-insensitive fixpoint in fpdepth.hpp smears every ret block's
// state to *every* return site of its function: a helper called at depths 0
// and 1 returns interval [0, 1] to both callers, inflating the hi bound —
// and thereby losing slot-emptiness proofs — downstream of each. This pass
// recovers that precision with classic summary-based interprocedural
// analysis:
//
//  1. Bottom-up, each function is summarized by its *relative* depth
//     behaviour: the net entry-to-ret delta interval [dlo, dhi], the
//     minimum entry depth `needs` that avoids underflow on every interior
//     path, and the maximum relative height `peak` reached (both including
//     composed callee summaries). Recursion, indirect transfers, unknown
//     callees and out-of-range interior intervals make a summary invalid.
//  2. Top-down, a monotone fixpoint propagates *absolute* anchored entry
//     intervals over the call graph: the program entry starts at [0, 0],
//     each call site sends its own pre-call interval to its callee — not a
//     join smeared back through every ret — and applies the callee's
//     summary delta at the return site. Address-taken functions are seeded
//     unanchored TOP when Cfg::reachable_indirect() holds, the same rule
//     FpDepth seeds by.
//  3. Per-instruction bounds are the join of the interior walks of every
//     (function, entry interval) context, so a pc shared by several
//     contexts is covered by all of them.
//
// The emptiness proof is the same anchor invariant as FpDepth: slot p is
// provably empty at pc when the joined state is anchored and p + hi < 8.
// Everything this pass cannot model drops to unanchored TOP (or stays
// unreachable, which also proves nothing), so it is sound stand-alone; the
// injector ORs it with the insensitive proof and attributes the fp-ctx rung
// only to slots this pass alone decides.
#pragma once

#include <cstdint>
#include <vector>

#include "svm/analysis/cfg.hpp"
#include "svm/analysis/fpdepth.hpp"

namespace fsim::svm::analysis {

class FpDepthCtx {
 public:
  /// Relative depth summary of one function (indexed like cfg.functions()).
  struct FnSummary {
    bool valid = false;   // composable: no recursion/indirect/unknown callee
    bool has_ret = false;  // some interior path reaches a ret
    std::int8_t dlo = 0, dhi = 0;  // net entry-to-ret depth delta interval
    std::int8_t needs = 0;  // min entry depth avoiding interior underflow
    std::int8_t peak = 0;   // max relative height reached (incl. callees)
  };

  explicit FpDepthCtx(const Cfg& cfg);

  /// Context-joined absolute bounds on entry to the instruction at `pc`.
  DepthBounds bounds_at(Addr pc) const noexcept;

  /// True if physical FP slot `phys` is provably empty whenever the machine
  /// is about to execute `pc` (anchored context-joined state, phys+hi < 8).
  bool slot_empty_at(Addr pc, unsigned phys) const noexcept;

  const std::vector<FnSummary>& summaries() const noexcept {
    return summaries_;
  }

  const Cfg& cfg() const noexcept { return *cfg_; }

 private:
  void summarize_all();
  bool summarize(std::uint32_t fn, std::vector<std::uint8_t>& state);
  void solve_entries();
  void finalize();

  const Cfg* cfg_;
  std::vector<FnSummary> summaries_;
  std::vector<DepthBounds> entry_in_;  // per function: absolute entry bounds
  std::vector<DepthBounds> instr_in_;  // per instruction, joined over contexts
};

}  // namespace fsim::svm::analysis
