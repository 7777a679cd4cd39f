// Architectural register state: 16 general-purpose registers plus an
// x87-style floating-point unit.
//
// The FPU mirrors the features the paper's §6.1.1 analysis rests on:
//  * eight data registers organised as a stack addressed relative to TOP;
//  * a tag word (TWD) with two bits per physical register encoding
//    valid / zero / special / empty — reads honour the tag, so a single bit
//    flip in TWD can turn a live value into 0.0 or NaN without touching the
//    data bits;
//  * special-purpose registers (CWD, SWD, FIP, FCS, FOO, FOS) that are
//    architecturally present and injectable but rarely consulted, which is
//    why the paper finds most special-register injections harmless. Here
//    no instruction reads them at all (observably_equal).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "svm/isa.hpp"

namespace fsim::svm {

enum class FpuTag : std::uint8_t {
  kValid = 0b00,
  kZero = 0b01,
  kSpecial = 0b10,  // NaN, infinity or denormal
  kEmpty = 0b11,
};

class Fpu {
 public:
  Fpu() { reset(); }

  void reset() noexcept {
    regs_.fill(0);
    twd_ = 0xffff;  // all empty
    top_ = 0;
    cwd_ = 0x037f;  // x87 power-on default
    swd_ = 0;
    fip_ = fcs_ = foo_ = fos_ = 0;
  }

  // --- Stack interface (x87 semantics) ---

  /// Push a value; sets the tag from the value. On overflow (target slot not
  /// empty) sets the C1/IE status bits and overwrites, like a masked x87.
  void push(double v) noexcept {
    top_ = (top_ + 7) & 7;  // decrement modulo 8
    if (tag(top_) != FpuTag::kEmpty) swd_ |= kStackFaultBits;
    set_physical(top_, v);
  }

  /// Value of ST(i). The *tag* decides what is observed: an empty slot reads
  /// as QNaN (stack underflow), a zero tag reads as +0.0, a special tag reads
  /// as QNaN regardless of the stored bits.
  double st(unsigned i) const noexcept {
    const unsigned phys = (top_ + i) & 7;
    switch (tag(phys)) {
      case FpuTag::kValid:
        return std::bit_cast<double>(regs_[phys]);
      case FpuTag::kZero:
        return 0.0;
      case FpuTag::kSpecial: {
        const double v = std::bit_cast<double>(regs_[phys]);
        // Infinities and denormals are tagged special but still read back;
        // anything else observed through a "special" tag is NaN.
        if (v != v || v == std::numeric_limits<double>::infinity() ||
            v == -std::numeric_limits<double>::infinity())
          return v;
        return std::numeric_limits<double>::quiet_NaN();
      }
      case FpuTag::kEmpty:
        break;
    }
    return std::numeric_limits<double>::quiet_NaN();
  }

  /// Replace ST(i) with v (retags).
  void set_st(unsigned i, double v) noexcept { set_physical((top_ + i) & 7, v); }

  /// Pop ST(0), marking the slot empty.
  double pop() noexcept {
    const double v = st(0);
    set_tag(top_, FpuTag::kEmpty);
    top_ = (top_ + 1) & 7;
    return v;
  }

  void exchange(unsigned i) noexcept {
    const unsigned p0 = top_ & 7;
    const unsigned pi = (top_ + i) & 7;
    std::swap(regs_[p0], regs_[pi]);
    const FpuTag t0 = tag(p0);
    set_tag(p0, tag(pi));
    set_tag(pi, t0);
  }

  /// Number of occupied (non-empty) slots.
  unsigned depth() const noexcept {
    unsigned n = 0;
    for (unsigned i = 0; i < kNumFpr; ++i)
      if (tag(i) != FpuTag::kEmpty) ++n;
    return n;
  }

  // --- Raw architectural state (fault-injection surface) ---

  FpuTag tag(unsigned phys) const noexcept {
    return static_cast<FpuTag>((twd_ >> (2 * (phys & 7))) & 0b11);
  }
  void set_tag(unsigned phys, FpuTag t) noexcept {
    const unsigned shift = 2 * (phys & 7);
    twd_ = static_cast<std::uint16_t>((twd_ & ~(0b11u << shift)) |
                                      (static_cast<unsigned>(t) << shift));
  }

  std::uint64_t& raw(unsigned phys) noexcept { return regs_[phys & 7]; }
  std::uint64_t raw(unsigned phys) const noexcept { return regs_[phys & 7]; }
  std::uint16_t& twd() noexcept { return twd_; }
  std::uint16_t twd() const noexcept { return twd_; }
  std::uint16_t& cwd() noexcept { return cwd_; }
  std::uint16_t& swd() noexcept { return swd_; }
  std::uint32_t& fip() noexcept { return fip_; }
  std::uint32_t& fcs() noexcept { return fcs_; }
  std::uint32_t& foo() noexcept { return foo_; }
  std::uint32_t& fos() noexcept { return fos_; }
  unsigned top() const noexcept { return top_; }
  void set_top(unsigned t) noexcept { top_ = t & 7; }

  static constexpr std::uint16_t kStackFaultBits = 0x0241;  // IE|SF|C1

  /// Bitwise: the data registers are compared as raw bits, never as
  /// doubles, so -0.0 differs from +0.0 and equal NaNs are equal.
  bool operator==(const Fpu&) const = default;

  /// Does every read of this FPU, now and after any sequence of stack
  /// operations, return what it would on `o`? TOP, TWD and the bits of
  /// each slot tagged valid or special must be equal. The rest is never
  /// read: st() returns a constant for an empty or zero tag; only
  /// set_physical retags a slot as non-empty, and it overwrites the bits;
  /// pop and exchange move tags and bits together. CWD, SWD, FIP, FCS, FOO
  /// and FOS are written (an overflowing push sets SWD bits, the fault
  /// injector flips any of them) but never read.
  bool observably_equal(const Fpu& o) const noexcept {
    if (top_ != o.top_ || twd_ != o.twd_) return false;
    for (unsigned i = 0; i < kNumFpr; ++i) {
      const FpuTag t = tag(i);
      if ((t == FpuTag::kValid || t == FpuTag::kSpecial) &&
          regs_[i] != o.regs_[i])
        return false;
    }
    return true;
  }

 private:
  void set_physical(unsigned phys, double v) noexcept {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    regs_[phys] = bits;
    // Classify from the exponent field (sign dropped): all-zero magnitude is
    // zero, biased exponent 0x7ff is NaN/infinity, biased exponent 0 with a
    // nonzero mantissa is denormal — identical to the FP-compare
    // classification (zero / NaN / ±inf / (-min, min)) it replaces.
    const std::uint64_t mag = bits << 1;
    FpuTag t = FpuTag::kValid;
    if (mag == 0)
      t = FpuTag::kZero;
    else if (mag >= 0xffe0000000000000ull || mag < 0x0020000000000000ull)
      t = FpuTag::kSpecial;
    set_tag(phys, t);
  }

  std::array<std::uint64_t, kNumFpr> regs_{};
  std::uint16_t twd_ = 0xffff;
  std::uint16_t cwd_ = 0x037f;
  std::uint16_t swd_ = 0;
  std::uint32_t fip_ = 0, fcs_ = 0, foo_ = 0, fos_ = 0;
  unsigned top_ = 0;
};

struct RegFile {
  std::array<std::uint32_t, kNumGpr> gpr{};
  std::uint32_t pc = 0;
  Fpu fpu;

  std::uint32_t sp() const noexcept { return gpr[kSp]; }
  std::uint32_t fp() const noexcept { return gpr[kFp]; }
  void set_sp(std::uint32_t v) noexcept { gpr[kSp] = v; }
  void set_fp(std::uint32_t v) noexcept { gpr[kFp] = v; }

  bool operator==(const RegFile&) const = default;
};

}  // namespace fsim::svm
