// Activation-windowed stack-frame slot liveness (the frame ladder rung).
//
// memliveness.hpp already classifies each function's fp-relative slots into
// read and written bytes, but stops at reporting: a dynamically sampled
// stack byte can only be pruned once it is attributed to the function that
// owns the sampled frame. The stack walker now records each frame's
// `owner_pc` (the machine pc for the innermost frame, the return site for
// outer ones), and this pass turns the per-function summaries into a
// per-activation proof: `slot_dead(owner_pc, off)` is true when the byte at
// frame offset `off` of the activation paused at `owner_pc` can never be
// read again by that activation — either the byte is never read anywhere in
// the owning function (the write-only / never-touched slots, the broad
// case), or every read site lies behind the activation's current pc in the
// intraprocedural flow (the windowed case, Block::succ reachability: a call
// steps to its return site because the frame sleeps untouched while callees
// run).
//
// The attribution is only sound under a frame discipline the pass verifies
// globally before admitting any claim (one violation anywhere disables the
// rung, `enabled() == false`):
//   * sp appears only in the push/pop/call/ret/enter/leave bookkeeping —
//     no sp-relative addressing, no sp arithmetic (sp-derived pointers
//     could reach any frame);
//   * every fp-relative access has a negative offset inside the accessing
//     function's own frame — loads of [fp+0..7] would launder the caller's
//     saved frame pointer, positive offsets would reach the caller's
//     frame, and out-of-frame negatives are unattributable;
//   * fp is only touched at enter-depth 1 (between the function's single
//     first-instruction `enter` and its `leave`) — outside that window fp
//     still designates the *caller's* frame;
//   * no reachable function may read a frame byte before writing it
//     (byte-granular must-write dataflow): a pruned flip parks in freed
//     stack memory, and a later activation of any function re-mapping that
//     address must overwrite it before looking;
//   * no reachable indirect jumps or blocks running off a segment end
//     (intraprocedural flow must be boundable).
// Per function, pruning additionally requires: a single `enter imm`
// (imm > 0) as the first instruction, an unescaped frame per MemLiveness
// (fp-derived pointers stay within the deriving function's frame — the
// same provenance stance memliveness takes), consistent enter-depths at
// block joins, and no blocks shared with another function. The saved-fp /
// return-address slots ([0,8)) and the caller's push area (below
// -frame_size) are never pruned.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "svm/analysis/cfg.hpp"
#include "svm/analysis/execgraph.hpp"
#include "svm/analysis/memliveness.hpp"

namespace fsim::svm::analysis {

/// Pruning-oriented view of one function's frame, for reports.
struct FrameWindowInfo {
  Addr entry = 0;
  std::string symbol;
  std::uint32_t frame_size = 0;  // local span below fp (enter immediate)
  bool eligible = false;         // slot_dead may fire for this frame
  int never_read_bytes = 0;      // local bytes with no read site at all
  int windowed_bytes = 0;        // read somewhere: prunable only by window
};

class StackWindow {
 public:
  StackWindow(const Cfg& cfg, const MemLiveness& mem);

  /// False when any global frame-discipline gate tripped; no slot is ever
  /// claimed dead then.
  bool enabled() const noexcept { return enabled_; }

  /// Per-function frame summaries in entry-address order.
  const std::vector<FrameWindowInfo>& frames() const noexcept {
    return frames_;
  }

  /// True if the stack byte at fp-relative offset `off` of the activation
  /// paused at `owner_pc` is provably never read again by any future
  /// execution. `owner_pc` must come from the stack walker's frame
  /// attribution; anything unprovable returns false.
  bool slot_dead(Addr owner_pc, std::int32_t off) const noexcept;

 private:
  struct FnWindows {
    std::uint32_t frame_size = 0;
    std::vector<int> entry_depth;  // per fn.blocks position; -1 unreached
    std::map<std::int32_t, ReadWindow> offsets;  // only offsets read somewhere
  };

  void scan(const Cfg& cfg, const MemLiveness& mem);

  const Cfg* cfg_;
  bool enabled_ = false;
  std::vector<FrameWindowInfo> frames_;
  std::map<std::uint32_t, FnWindows> eligible_;  // keyed by function id
};

}  // namespace fsim::svm::analysis
