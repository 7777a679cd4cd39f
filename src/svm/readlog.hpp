// The golden run's read oracle: when did a process last read each word?
//
// This is the working-set measurement of the paper's §6.1.2 (Tables 5-7,
// trace::AccessTracer) turned into an exact oracle for memory faults. A
// ReadLog attached to a Memory stamps every read — program loads, text
// fetches and the privileged peeks the MPI library, the environment and
// the heap make — with the number of the instruction doing it: the rank's
// instruction count once that instruction has been counted.
//
// An injected run replays the golden run exactly up to its fault, and the
// fault lands between quanta, when the rank has executed `count`
// instructions. A read stamped above `count` came after the flip; one
// stamped at or below it came before. A flipped byte whose granule has no
// read after the flip is never observed, so the run stays the golden run
// to the end (core/run.cpp ends it at injection).
//
// The stamps span the whole address space, in anonymous mappings of their
// own (svm/pages.hpp): only the pages holding a stamp are ever backed,
// about one page of stamps per page the run reads, and none of it passes
// through the malloc heap. A finished log is the oracle itself; nothing is
// copied out.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "svm/layout.hpp"
#include "svm/pages.hpp"

namespace fsim::svm {

class Memory;

/// How a state compares with a captured one (Memory::same_contents,
/// Snapshot::matches): equal bit for bit, different only in state no later
/// read observes, or different where a later read may look.
enum class Match : std::uint8_t { kDiffers, kExact, kObservable };

/// One rank's read stamps. Stamps are 32-bit: a rank that runs past
/// 2^32 - 1 instructions cannot be recorded (run_golden then keeps no
/// oracle).
class ReadLog {
 public:
  static constexpr unsigned kGranule = 4;  // bytes per stamp

  /// Reserves a zeroed stamp per granule of `memory`'s address space: one
  /// array from the text base to the end of the heap's capacity (the
  /// segments are packed upward there) and one over the stack's.
  explicit ReadLog(const Memory& memory);

  /// Number of the instruction being executed, for reads through Memory.
  /// The interpreter sets it before each fetch; the threaded engine before
  /// each syscall (it stamps its own fetches and loads through stamps()).
  std::uint64_t now = 0;

  /// A read of [off, off + n) in segment `seg` (Memory's one read path).
  void stamp(unsigned seg, std::uint32_t off, std::size_t n) noexcept;

  /// Is the granule holding `addr` read after the rank's `count`-th
  /// instruction? True for an address outside the address space.
  bool read_after(Addr addr, std::uint64_t count) const noexcept;

  /// The same stamps over the text, data, BSS, heap and stack segments
  /// (the ones faults target).
  bool operator==(const ReadLog& o) const noexcept;

  /// The raw stamp arrays, for the threaded engine's hot loop: every
  /// address a fetch or a completed load touches lies in one of them. A
  /// stamp is as wide as its granule, so the stamp of `addr` sits at byte
  /// `addr` (granule-aligned) past an array's bias: its base address less
  /// the address its first granule stamps.
  struct Stamps {
    static_assert(sizeof(std::uint32_t) == kGranule);
    Addr low_base = 0;
    std::uint32_t low_size = 0;  // bytes
    std::uintptr_t low_bias = 0;
    std::uintptr_t stack_bias = 0;

    /// The stamp of the granule starting at `addr` (granule-aligned).
    std::uint32_t* at(Addr addr) const noexcept {
      const std::uintptr_t bias =
          addr - low_base < low_size ? low_bias : stack_bias;
      return reinterpret_cast<std::uint32_t*>(bias + addr);
    }
    /// A completed load of n <= 8 bytes. Wider loads than a byte are
    /// 4-aligned (a misaligned one traps), so only a byte load rounds down.
    void load(Addr addr, unsigned n, std::uint32_t when) const noexcept {
      if (n == 1) addr &= ~Addr{kGranule - 1};
      std::uint32_t* p = at(addr);
      p[0] = when;
      if (n > kGranule) p[1] = when;
    }
    /// The fetch of the instruction at `pc` (always in the low array).
    void fetch(Addr pc, std::uint32_t when) const noexcept {
      *reinterpret_cast<std::uint32_t*>(low_bias + pc) = when;
    }
  };
  const Stamps& stamps() const noexcept { return stamps_; }

 private:
  std::array<Addr, kNumSegments> seg_base_{};
  std::array<std::uint32_t, kNumSegments> seg_size_{};
  Pages low_, stack_;  // the stamps below the heap's end, and the stack's
  Stamps stamps_;
};

}  // namespace fsim::svm
