// Forward FP-stack depth analysis over the static CFG.
//
// Computes, for every instruction the whole-program fixpoint can reach from
// the entry point, an interval [lo, hi] bounding the x87-style FP-stack
// depth (= TWD occupancy) on entry to that instruction, with meet = interval
// union. Calls are followed interprocedurally: a call edge carries the
// caller's post-body state into the callee entry, and a ret block's state
// flows to every return site of its function (context-insensitive, like
// liveness.hpp). Unknown callees (indirect calls, targets outside the text
// segments) inject the TOP state [0, 8] at their return sites.
//
// The payoff is the *anchor invariant*: starting from FPU reset, pure
// push/pop discipline keeps the occupied physical slots exactly
// {8-d, ..., 7} with top = (8-d) mod 8, so physical slot p is empty exactly
// when p < 8 - d. While a state is `anchored` (no possible underflow,
// overflow or over-deep fxch on any path so far), depth bounds translate
// into per-physical-slot emptiness proofs: slot p is provably empty at pc
// whenever p + hi < 8. A fault flipping a data bit of a provably empty slot
// is masked — reads of empty slots go through the tag word (QNaN regardless
// of the stale data bits) and the only empty->occupied transition is a full
// 64-bit overwrite — so the injector can classify it Correct without a run.
//
// Any event that can break the push/pop discipline (possible underflow,
// possible overflow, an instruction needing more slots than the lower bound
// guarantees) widens the state to unanchored TOP; unanchored states prove
// nothing, keeping the analysis sound rather than precise.
//
// The same fixpoint powers lint-grade diagnostics that the per-function
// *relative* depth checks in lint.cpp cannot see: a definite overflow where
// a callee's absolute entry depth pushes its interior past 8 slots, and a
// definite underflow where no reachable path provides the operands.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svm/analysis/cfg.hpp"
#include "svm/analysis/defuse.hpp"

namespace fsim::svm::analysis {

/// FP-stack depth bounds on entry to one instruction.
struct DepthBounds {
  std::int8_t lo = 0;      // minimum depth over all reaching paths
  std::int8_t hi = 0;      // maximum depth over all reaching paths
  bool anchored = false;   // push/pop discipline intact on every path
  bool reachable = false;  // some fixpoint path reaches this instruction

  /// Canonical "know nothing" state: reachable, but no slot proof possible.
  static constexpr DepthBounds top() noexcept {
    return {0, static_cast<std::int8_t>(kNumFpr), false, true};
  }
  /// The anchor invariant: physical slot `phys` is empty when the state is
  /// reachable, anchored and phys + hi < 8.
  bool slot_empty(unsigned phys) const noexcept {
    return phys < kNumFpr && reachable && anchored &&
           phys + static_cast<unsigned>(hi) < kNumFpr;
  }
  friend bool operator==(const DepthBounds&, const DepthBounds&) = default;
};

// The depth-bound algebra both FP-depth passes (this one and fpdepth_ctx)
// run on.

/// Transfer one instruction's effect. Any possible underflow or overflow
/// breaks the anchor, and unanchored states widen to TOP (TOP is a fixed
/// point of this function, so blocks entered mid-way through an indirect
/// jump are covered by seeding TOP at their head).
DepthBounds depth_apply(DepthBounds s, const RegEffect& e) noexcept;

/// Interval union of two states; anything unanchored joins to TOP.
DepthBounds depth_join(const DepthBounds& a, const DepthBounds& b) noexcept;

/// Joins a state arriving along an edge (reachable by construction) into
/// `cur`; true if `cur` changed. The join of every depth fixpoint.
bool depth_flow_into(DepthBounds& cur, DepthBounds s) noexcept;

/// A finding of the depth fixpoint, converted to a lint Diagnostic by
/// run_lint (kept as its own struct so fpdepth does not depend on lint).
struct FpDepthIssue {
  bool is_error = false;
  std::string code;  // "fp-static-underflow" | "fp-static-overflow" |
                     // "fp-static-maybe-overflow" | "fp-call-depth-imbalance"
  Addr addr = 0;
  std::string message;
};

class FpDepth {
 public:
  explicit FpDepth(const Cfg& cfg);

  /// Bounds on entry to the instruction at `pc`. Unreachable or
  /// out-of-code addresses return an unanchored, unreachable TOP.
  DepthBounds bounds_at(Addr pc) const noexcept;

  /// True if physical FP slot `phys` (0..7) is provably empty whenever the
  /// machine is about to execute `pc`: the state is anchored, the pc is in
  /// the fixpoint-reached set, and phys + hi < 8.
  bool slot_empty_at(Addr pc, unsigned phys) const noexcept;

  /// Number of physical slots (counted from slot 0 upward) that are empty
  /// at *every* fixpoint-reachable instruction — 8 - max depth if every
  /// reachable state is anchored, 0 otherwise. A data-bit fault in such a
  /// slot is masked no matter when it is injected.
  unsigned always_empty_slots() const noexcept { return always_empty_; }

  /// Maximum anchored depth bound over all reachable instructions
  /// (kNumFpr when some reachable state is unanchored).
  unsigned max_depth_bound() const noexcept { return max_depth_; }

  /// Depth diagnostics, ordered by address then code.
  const std::vector<FpDepthIssue>& issues() const noexcept { return issues_; }

  const Cfg& cfg() const noexcept { return *cfg_; }

 private:
  void solve();
  void finalize();

  const Cfg* cfg_;
  std::vector<DepthBounds> block_in_;  // per block
  std::vector<DepthBounds> instr_in_;  // per instruction (text then lib)
  std::vector<FpDepthIssue> issues_;
  unsigned always_empty_ = 0;
  unsigned max_depth_ = 0;
};

}  // namespace fsim::svm::analysis
