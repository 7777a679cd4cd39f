// Execution-successor graph over Cfg blocks.
//
// The Cfg's succ edges are intraprocedural: a call block steps over the
// callee straight to its return site. Several ladder rungs (time-windowed
// symbol liveness, allocation-site heap liveness) instead need "where can
// control actually flow next":
//   * a call block flows into its callee's entry (NOT its return site —
//     the continuation is reached through the callee's rets);
//   * a ret block flows to every return site of every function containing
//     it (context-insensitive, like fpdepth);
//   * indirect transfers flow to every address-taken block;
//   * blocks that leave the modeled world (unknown callees, falling off
//     the segment) are `unbounded`: anything could execute afterwards;
//   * an aborting syscall (exit / assert-fail) terminates the rank, so
//     nothing flows past it.
// Backward reachability over this graph is the core of every "no read is
// forward-reachable from the paused pc" proof.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "svm/analysis/cfg.hpp"

namespace fsim::svm::analysis {

/// Where the reads of one object (a data symbol, a heap allocation site)
/// can still happen: its read sites per block, and the blocks from whose
/// end one of them is reachable over the execution-successor graph.
struct ReadWindow {
  std::vector<bool> live_out;  // per block: a read is reachable past the end
  std::map<std::uint32_t, std::vector<Addr>> reads;  // block -> sorted pcs

  /// True if no read site is forward-reachable from `pc`: none at or after
  /// it in its own block, none past the block's end. False outside the
  /// code.
  bool dead_at(const Cfg& cfg, Addr pc) const noexcept;
};

/// The read window of an object read at `read_pcs` over any block
/// predecessor relation: `preds(b)` lists the blocks control reaches `b`
/// from, and the `unbounded` blocks (indexed by block id; empty for none)
/// count as reaching a read.
template <class Preds>
ReadWindow backward_window(const Cfg& cfg, const std::vector<Addr>& read_pcs,
                           const std::vector<bool>& unbounded, Preds&& preds) {
  ReadWindow w;
  const std::size_t n = cfg.blocks().size();
  w.live_out.assign(n, false);
  std::vector<bool> live_in(n, false);  // a read is reachable from the start
  std::deque<std::uint32_t> work;
  auto seed = [&](std::uint32_t id) {
    if (!live_in[id]) {
      live_in[id] = true;
      work.push_back(id);
    }
  };
  for (Addr rpc : read_pcs) {
    const std::uint32_t id = cfg.block_index_of(rpc);
    if (id == Cfg::kNoBlock) continue;
    w.reads[id].push_back(rpc);
    seed(id);
  }
  for (auto& [id, pcs] : w.reads) std::sort(pcs.begin(), pcs.end());
  for (std::uint32_t id = 0; id < unbounded.size(); ++id) {
    if (unbounded[id]) {
      w.live_out[id] = true;
      seed(id);
    }
  }
  while (!work.empty()) {
    const std::uint32_t s = work.front();
    work.pop_front();
    for (std::uint32_t p : preds(s)) {
      if (!w.live_out[p]) {
        w.live_out[p] = true;
        seed(p);
      }
    }
  }
  return w;
}

class ExecGraph {
 public:
  explicit ExecGraph(const Cfg& cfg);

  /// The read window of an object read at `read_pcs`, by backward
  /// reachability from the blocks holding them. Unbounded blocks count as
  /// reaching a read.
  ReadWindow window(const Cfg& cfg, const std::vector<Addr>& read_pcs) const {
    return backward_window(cfg, read_pcs, unbounded_,
                           [this](std::uint32_t b) -> const auto& {
                             return rev_[b];
                           });
  }

 private:
  std::vector<std::vector<std::uint32_t>> rev_;  // execution predecessors
  /// Blocks from which control can leave the modeled world (unknown
  /// callee, falls off the segment): they reach every event.
  std::vector<bool> unbounded_;
};

}  // namespace fsim::svm::analysis
