// Interprocedural value-range analysis (the value-range ladder rung).
//
// Per-block unsigned intervals over the 16 GPRs, propagated forward to a
// fixpoint with widening, plus symbol-granularity value ranges for tracked
// (never-escaped) data/BSS symbols: a symbol's range is the join of its
// initial image with every interval stored into it, iterated with the
// register pass until both sides stabilise.
//
// The payoff is *statically decided branches*: a conditional whose operand
// intervals are disjoint (or equal singletons) always goes one way, so the
// other arm is dead even though plain reachability — which follows both
// branch edges — keeps it alive. `reachable_refined` re-runs the Cfg's
// reachability walk (same seeds: entry block plus every address-taken
// block) but follows only the decided edge of a decided branch; the result
// is a subset of base reachability, and text faults in the difference are
// provably never fetched in the golden run. The same intervals power the
// `range-dead-branch` and `range-store-oob` lint diagnostics.
//
// Soundness leans on the assumptions already documented in cfg.hpp and
// memliveness.hpp: data addresses enter registers only through scanned
// `la` pairs, so a store through an address this analysis cannot bound can
// never hit a tracked (never-escaped) symbol, and tracked-symbol ranges
// close over every store that can reach them. Everything unknown — calls,
// syscalls, indirect entries, unmodelled arithmetic — goes straight to
// TOP. Branch decisions, and hence refined reachability, describe the
// *uncorrupted* execution, which is exactly what text-fault pruning needs:
// a flipped instruction word at a never-fetched address leaves the run
// bit-identical to golden.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "svm/analysis/cfg.hpp"
#include "svm/analysis/lint.hpp"
#include "svm/analysis/memliveness.hpp"

namespace fsim::svm::analysis {

/// Closed unsigned interval [lo, hi]. Default-constructed = TOP.
struct Interval {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0xffffffffu;

  bool top() const noexcept { return lo == 0 && hi == 0xffffffffu; }
  bool singleton() const noexcept { return lo == hi; }
  bool contains(std::uint32_t v) const noexcept { return lo <= v && v <= hi; }
};

/// One lint-grade finding from the range analysis (always a warning).
struct ValueRangeIssue {
  std::string code;  // "range-dead-branch" or "range-store-oob"
  Addr addr = 0;
  std::string message;
};

class ValueRange {
 public:
  /// Symbols that escape the access scan, or whose address `mem` saw
  /// published through a .data word, are untracked (TOP).
  ValueRange(const Cfg& cfg, const std::map<Addr, SymbolAccess>& access,
             const MemLiveness& mem);

  /// Refined whole-program reachability: like Cfg::reachable_addr but
  /// statically decided branches contribute only their taken edge.
  /// Always a subset of the base reachability.
  bool reachable_refined(Addr a) const noexcept {
    return reachable_refined_block(cfg_->block_index_of(a));
  }
  bool reachable_refined_block(std::uint32_t id) const noexcept {
    return id != Cfg::kNoBlock && id < refined_.size() && refined_[id];
  }

  const std::vector<ValueRangeIssue>& issues() const noexcept {
    return issues_;
  }

 private:
  struct SymExtent {
    Addr lo = 0, hi = 0;  // [lo, hi)
    Addr key = 0;         // symbol address (sym_ranges_ key if tracked)
    bool tracked = false;
  };

  const SymExtent* extent_of(Addr a) const noexcept;
  Interval initial_range(const SymExtent& e) const;
  /// One forward register fixpoint against `sym_ranges_`. Fills
  /// `refined_` with the visited set; when `stores` is non-null, joins
  /// every bounded store into it (TOP entry = stb/fst hit the symbol);
  /// when `record` is true, also fills issues_.
  bool run_pass(std::map<Addr, Interval>* stores, bool record);

  const Cfg* cfg_;
  std::vector<SymExtent> extents_;        // sorted by lo; copied from Program
  std::map<Addr, Interval> sym_ranges_;   // tracked symbols only
  std::map<Addr, Interval> sym_initial_;  // initial-image ranges
  std::vector<bool> refined_;
  std::vector<ValueRangeIssue> issues_;
};

}  // namespace fsim::svm::analysis
