// Allocation-site heap chunk liveness (the heap ladder rung).
//
// Dynamic heap chunks have no symbols, so none of the data/BSS machinery
// applies to them — yet the cold allocations the apps carry (diagnostic
// buffers that are zeroed and never examined) are exactly as provably dead
// as a write-only .bss array. This pass recovers that proof statically: it
// follows the result of every reachable `sys 8` (malloc) through registers,
// interprocedurally, and classifies each *allocation site* as
//   * write-only   — no instruction ever loads through a pointer derived
//                    from this site's result: a flip in the chunk payload
//                    can never be observed (site_dead);
//   * windowed     — read somewhere, but past its last forward-reachable
//                    read from a given pc the payload is dead (site_dead_at,
//                    the same execution-successor window timewindow.hpp
//                    computes for symbols);
//   * escaped      — the pointer left register tracking (stored to live
//                    memory, passed to a syscall, mixed into arithmetic the
//                    model cannot follow): assumed read everywhere.
//
// The analysis is an optimistic interprocedural abstract interpretation:
// registers carry one of {untracked, constant, entry-parameter, site},
// function behaviour is summarised per parameter register (read / written /
// escaped / read pcs, plus a symbolic return state) and iterated to a
// whole-program fixpoint. If the fixpoint does not settle within a fixed
// round budget, or any reachable block is outside every detected function,
// the rung disables itself (`tracked() == false`) rather than guess.
//
// Soundness rests on the escape-on-loss invariant: whenever a tracked
// pointer value would leave the abstract domain (joins, stores to live
// memory, untrackable arithmetic, unknown callees, indirect transfers), its
// site is marked escaped first. A non-escaped site's address therefore
// exists only in tracked registers or in registers the sound liveness
// analysis proves dead — a dead register is overwritten before any read on
// every path, so its stale copy can never be used as a load base. A load
// through an *untracked live* base can thus never touch a non-escaped
// site's chunk — reads of such chunks are exactly the recorded ones. The
// liveness refinement is what keeps the ubiquitous "allocate in a loop
// preheader" shape tracked: the back edge joins a stale pointer copy in a
// register the loop body has long since clobbered. Two documented provenance assumptions, the
// same addressing-discipline stance memliveness.hpp takes for symbols:
// pointer arithmetic on a malloc result stays within that chunk (C
// provenance), and code does not forge heap addresses out of integer
// constants (the assembler can only materialise symbol addresses, and no
// symbol covers the heap arena). Both are exercised empirically by the
// off-vs-full campaign digest matrix in CI.
//
// One refinement keeps the common "stash the pointer in a cold global"
// idiom tracked: a store of a tracked pointer into a symbol that is never
// read, never escapes and is not pointer-published entombs the pointer —
// nothing can ever load it back, so the site does not escape.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "svm/analysis/cfg.hpp"
#include "svm/analysis/execgraph.hpp"
#include "svm/analysis/lint.hpp"
#include "svm/analysis/liveness.hpp"
#include "svm/analysis/memliveness.hpp"

namespace fsim::svm::analysis {

/// Whole-program access summary of one static allocation site (`sys 8`).
struct HeapSite {
  Addr pc = 0;          // address of the allocating `sys 8` word
  std::string symbol;   // covering function symbol, for reports
  bool user = false;    // allocated from user text (vs the MPI library)
  bool read = false;
  bool written = false;
  bool escaped = false;
  std::vector<Addr> read_pcs;  // sorted, deduplicated load sites
};

class HeapLiveness {
 public:
  /// `graph` is the execution-successor graph of the same cfg. `live` must
  /// be the kSound register liveness over it; its dead-register proofs
  /// license dropping stale pointer copies at joins without escaping the
  /// site.
  HeapLiveness(const Cfg& cfg, const ExecGraph& graph,
               const std::map<Addr, SymbolAccess>& access,
               const MemLiveness& mem, const Liveness& live);

  /// Did the interprocedural scan converge and cover every reachable
  /// block? When false, every site is reported escaped and no query
  /// proves anything.
  bool tracked() const noexcept { return tracked_; }

  /// All discovered allocation sites, keyed by the `sys 8` pc.
  const std::map<Addr, HeapSite>& sites() const noexcept { return sites_; }

  /// True if the chunk allocated at `site` is provably write-only: no
  /// load anywhere can observe a payload flip, at any instant.
  bool site_dead(Addr site) const noexcept;

  /// Time-windowed proof: true if no read of `site`'s chunk is
  /// forward-reachable from `pc` — a flip applied while paused at `pc`
  /// is never observed even though the chunk is read elsewhere.
  bool site_dead_at(Addr site, Addr pc) const noexcept;

 private:
  const Cfg* cfg_;
  bool tracked_ = false;
  std::map<Addr, HeapSite> sites_;
  std::map<Addr, ReadWindow> windows_;  // keyed by site pc; read sites only
};

}  // namespace fsim::svm::analysis
