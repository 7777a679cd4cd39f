// Time-windowed data/BSS liveness (the time-window ladder rung).
//
// The whole-program predicate in memliveness.hpp is timing-independent: a
// byte is dead only if its symbol is *never* read. Most faults hit symbols
// that are read somewhere — but an injection late in the run may still land
// after the symbol's last read: every path forward from the paused pc is
// read-free, so the flip can never be observed and the run is provably
// golden. This pass computes that per-pc window.
//
// Model: for each tracked symbol (user data/BSS, never escaped in the
// access scan, not published through a .data pointer word — so *every*
// read goes through a recorded `la`-materialised site), a backward
// reachability over the execution-successor graph marks the blocks from
// which some read site is still reachable:
//   * ordinary blocks flow to their intraprocedural successors;
//   * a call block flows into its callee's entry (NOT its return site —
//     the continuation is reached through the callee's rets);
//   * a ret block flows to every return site of every function containing
//     it (context-insensitive, like fpdepth);
//   * indirect transfers flow to every address-taken block, and blocks
//     that leave the modeled world (unknown callees, falling off the
//     segment) count as reaching every read.
// Within a block the window is instruction-precise: paused at `pc`, the
// symbol is live iff a recorded read site at pc' >= pc exists in the same
// block, or a read is reachable past the block's end (live_out).
//
// Soundness: memory is per-rank and only *reads* can propagate a flipped
// byte into outputs or control flow; writes merely shrink the window
// further (ignored, conservative). The paused pc is dynamically reached,
// hence inside the static reachability over-approximation, and tracked
// symbols have no unrecorded read channel by construction.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "svm/analysis/cfg.hpp"
#include "svm/analysis/execgraph.hpp"
#include "svm/analysis/lint.hpp"
#include "svm/analysis/memliveness.hpp"

namespace fsim::svm::analysis {

class TimeWindow {
 public:
  /// `graph` is the execution-successor graph of the same cfg (calls enter
  /// callees, rets return to call continuations).
  TimeWindow(const Cfg& cfg, const ExecGraph& graph,
             const std::map<Addr, SymbolAccess>& access, const MemLiveness& mem);

  /// True if the data/BSS byte at `addr` is provably past its last read
  /// when the machine is paused at `pc`: its symbol is tracked and no read
  /// site is forward-reachable from `pc`. False whenever nothing can be
  /// proved (unknown symbol, untracked symbol, pc outside the code).
  bool dead_at(Addr addr, Addr pc) const noexcept;

 private:
  /// Byte extent of one tracked symbol. Copied out of the Program at
  /// construction: queries run at injection time, when the analysis may
  /// outlive the (moved-from) Program object it was built against.
  struct Range {
    Addr lo = 0, hi = 0;  // [lo, hi)
    const ReadWindow* window = nullptr;
  };

  const Cfg* cfg_;
  std::map<Addr, ReadWindow> windows_;  // keyed by symbol address
  std::vector<Range> ranges_;          // sorted by lo, for byte lookup
};

}  // namespace fsim::svm::analysis
