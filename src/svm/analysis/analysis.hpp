// One-stop bundle of the static analyses a campaign consumes: the CFG,
// sound liveness (for pre-injection pruning) and the reachable symbol
// access sets (for fault-dictionary activation annotation). Built once per
// linked image and shared read-only across campaign workers; `fsim lint`
// and `fsim profile` read the same bundle rather than building their own.
// Every query may read the Program the bundle was built from, through
// `cfg().program()`. core::Prepared holds its Program at a fixed address,
// so a Prepared's bundle stays valid however often the Prepared is moved.
#pragma once

#include "svm/analysis/cfg.hpp"
#include "svm/analysis/execgraph.hpp"
#include "svm/analysis/fpdepth.hpp"
#include "svm/analysis/fpdepth_ctx.hpp"
#include "svm/analysis/heapliveness.hpp"
#include "svm/analysis/lint.hpp"
#include "svm/analysis/liveness.hpp"
#include "svm/analysis/memliveness.hpp"
#include "svm/analysis/stackwindow.hpp"
#include "svm/analysis/timewindow.hpp"
#include "svm/analysis/valuerange.hpp"

namespace fsim::svm::analysis {

class ProgramAnalysis {
 public:
  explicit ProgramAnalysis(const Program& program)
      : cfg_(program),
        liveness_(cfg_, DefUseModel::kSound),
        symbol_access_(scan_symbol_access(cfg_, liveness_)),
        fpdepth_(cfg_),
        fpdepth_ctx_(cfg_),
        memliveness_(cfg_, symbol_access_),
        exec_graph_(cfg_),
        timewindow_(cfg_, exec_graph_, symbol_access_, memliveness_),
        valuerange_(cfg_, symbol_access_, memliveness_),
        heapliveness_(cfg_, exec_graph_, symbol_access_, memliveness_,
                      liveness_),
        stackwindow_(cfg_, memliveness_) {}

  const Cfg& cfg() const noexcept { return cfg_; }
  const Liveness& liveness() const noexcept { return liveness_; }
  const FpDepth& fpdepth() const noexcept { return fpdepth_; }
  const FpDepthCtx& fpdepth_ctx() const noexcept { return fpdepth_ctx_; }
  const MemLiveness& memliveness() const noexcept { return memliveness_; }
  const TimeWindow& timewindow() const noexcept { return timewindow_; }
  const ValueRange& valuerange() const noexcept { return valuerange_; }
  const HeapLiveness& heapliveness() const noexcept { return heapliveness_; }
  const StackWindow& stackwindow() const noexcept { return stackwindow_; }

  /// True if `gpr` is provably overwritten before any read on every path
  /// from `pc` — the pruning proof. Never true outside the code ranges.
  bool register_dead_at(Addr pc, unsigned gpr) const noexcept {
    return cfg_.in_code(pc) && liveness_.dead_at(pc, gpr);
  }

  /// Is `pc` inside the analyzed code (user or library text)?
  bool covers(Addr pc) const noexcept { return cfg_.in_code(pc); }

  /// True if physical FP slot `phys` is provably empty whenever the machine
  /// is about to execute `pc` — a data-bit fault there is masked behind the
  /// tag word (see fpdepth.hpp for the anchor invariant).
  bool fpu_slot_dead_at(Addr pc, unsigned phys) const noexcept {
    return fpdepth_.slot_empty_at(pc, phys);
  }

  /// True if slot `phys` is provably empty at `pc` under the
  /// context-sensitive depth analysis (summary-composed call contexts).
  /// Strictly more precise than `fpu_slot_dead_at`; callers wanting ladder
  /// attribution should query the insensitive proof first.
  bool fpu_slot_dead_ctx(Addr pc, unsigned phys) const noexcept;

  /// True if a fault in the data/BSS byte at `addr` is provably masked:
  /// the owning symbol is never read and never escapes, at any instant.
  bool data_byte_dead(Addr addr) const noexcept {
    return memliveness_.data_byte_dead(addr);
  }

  /// Time-windowed proof: true if the data/BSS byte at `addr`, though
  /// possibly live somewhere in the program, has no reachable read on any
  /// path from `pc` — a flip applied while paused at `pc` is never
  /// observed.
  bool data_byte_dead_at(Addr addr, Addr pc) const noexcept;

  /// Value-range-refined text reachability: like `text_reachable`, but
  /// branches the interval analysis decides statically follow only the
  /// taken successor. refined ⊆ base reachability.
  bool text_reachable_refined(Addr a) const;

  /// Static reachability of a text address from the entry point. Byte
  /// addresses are mapped to the instruction word containing them: a
  /// fault in any byte of a reachable instruction is reachable.
  bool text_reachable(Addr a) const {
    return cfg_.reachable_addr(a & ~Addr{3});
  }

  /// True if every byte of the heap chunk allocated at site `site` (the pc
  /// of its `sys malloc` word) is provably never read: a write-only or
  /// entombed allocation. Timing-independent.
  bool heap_site_dead(Addr site) const noexcept;

  /// Windowed variant: the chunk from `site` may be read somewhere, but no
  /// read is reachable from `pc` — a flip applied while paused at `pc` is
  /// never observed through any alias of the chunk.
  bool heap_site_dead_at(Addr site, Addr pc) const noexcept;

  /// Activation-windowed stack proof: the byte at fp-relative offset `off`
  /// of the frame whose activation is paused at `owner_pc` (per the stack
  /// walker) is never read again. False whenever the frame discipline
  /// could not be verified.
  bool stack_slot_dead(Addr owner_pc, std::int32_t off) const noexcept;

  const std::map<Addr, SymbolAccess>& symbol_access() const noexcept {
    return symbol_access_;
  }

 private:
  Cfg cfg_;
  Liveness liveness_;
  std::map<Addr, SymbolAccess> symbol_access_;
  FpDepth fpdepth_;
  FpDepthCtx fpdepth_ctx_;
  MemLiveness memliveness_;
  ExecGraph exec_graph_;  // shared by the time-window and heap rungs
  TimeWindow timewindow_;
  ValueRange valuerange_;
  HeapLiveness heapliveness_;
  StackWindow stackwindow_;
};

}  // namespace fsim::svm::analysis
