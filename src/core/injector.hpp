// The fault injector: draws one single-bit flip in a paused job and
// applies it.
//
// This is the moral equivalent of the paper's ptrace-based injector (§3.1):
// the scheduler halts the target between instruction quanta, the injector
// overwrites one bit of register or memory state, and execution resumes.
// Drawing the flip leaves the job untouched, so a run whose drawn fault is
// already decided (pruned, never read again, inert) needs no poke at all.
// Message faults are armed on the Channel before the run instead (§3.3).
#pragma once

#include <optional>
#include <string>

#include "core/dictionary.hpp"
#include "core/outcome.hpp"
#include "simmpi/world.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/isa.hpp"
#include "util/rng.hpp"

namespace fsim::core {

/// Size of the FPU fault space an FP-register fault draws from: 8 x 64 data
/// bits plus TWD/CWD/SWD (16 each) and FIP/FCS/FOO/FOS (32 each).
inline constexpr unsigned kFpuStateBits = svm::kNumFpr * 64 + 3 * 16 + 4 * 32;

/// Description of a drawn fault, for reports and replay, and the flip
/// Injector::apply makes.
struct AppliedFault {
  Region region{};
  int rank = -1;
  std::string target;  // e.g. "r7 bit 12", "data sym 'coef_table'+5 bit 3"
  /// Static activation class of the target: for register faults, liveness
  /// of the hit register at the rank's paused pc; for dictionary faults,
  /// the (annotated) entry's class. kUnknown for everything else.
  Activation activation = Activation::kUnknown;
  /// Precision-ladder rung whose proof tagged the fault dead (kNone for
  /// live/unknown targets).
  PruneRung rung = PruneRung::kNone;
  /// The flipped byte, for the memory regions (Text/Data/BSS/Heap/Stack).
  std::optional<svm::Addr> address;
  /// An FP flip that no instruction can observe (svm::Fpu::
  /// observably_equal holds across it): a CWD, SWD, FIP, FCS, FOO or FOS
  /// bit, or a data bit of a slot tagged empty or zero.
  bool inert = false;
  /// The flipped bit: bit `bit` of GPR `reg` (kRegularReg), bit `bit` of
  /// the FPU state vector (kFpReg, 0 to kFpuStateBits - 1), or bit `bit`
  /// of the byte at `address` (the memory regions).
  unsigned reg = 0;
  unsigned bit = 0;
};

class Injector {
 public:
  /// `dictionary` is required for the static regions (Text/Data/BSS) and
  /// ignored otherwise. `analysis`, when given, tags register faults with
  /// their static activation class (the pruning precondition).
  Injector(Region region, const FaultDictionary* dictionary = nullptr,
           const svm::analysis::ProgramAnalysis* analysis = nullptr)
      : region_(region), dictionary_(dictionary), analysis_(analysis) {}

  /// Draw one bit of a uniformly chosen target of the given region in a
  /// random rank of the (paused) world, without changing the world.
  /// Returns nullopt when no viable target exists anywhere (e.g. no live
  /// user heap chunk yet). The world's accessors are not const, but the
  /// draw only reads through them.
  std::optional<AppliedFault> draw(simmpi::World& world, util::Rng& rng) const;

  /// Flip the bit `fault` names: the world must be the one it was drawn
  /// from, unchanged since.
  static void apply(simmpi::World& world, const AppliedFault& fault);

  /// draw, then apply.
  std::optional<AppliedFault> inject(simmpi::World& world, util::Rng& rng) const;

 private:
  std::optional<AppliedFault> draw_in_rank(simmpi::World& world, int rank,
                                           util::Rng& rng) const;

  Region region_;
  const FaultDictionary* dictionary_;
  const svm::analysis::ProgramAnalysis* analysis_;
};

}  // namespace fsim::core
