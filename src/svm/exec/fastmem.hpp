// Flat window snapshot used by the threaded engine's memory fast path.
//
// A FastMem caches the backed window (start address, size, data pointer) of
// every segment so loads and stores that hit a window resolve with a short
// probe loop (last-hit segment first) instead of Memory::locate's
// enum-order scan. Everything else — an access outside every window, whether
// it lands in a segment's unbacked capacity or nowhere — falls back to the
// Memory accessor, which reads zeros, grows the window or traps exactly as
// the interpreter's would.
//
// Validity: backing storage never moves (windows grow in place inside a
// fixed reservation), so the cached copy goes stale only when a window
// changes. Memory counts those changes in `window_version()`; `valid()`
// keys the snapshot to the owning Memory's address and that version, and
// a fallback store re-`refresh()`es as soon as it sees the version move.
// Text pokes leave windows alone, so they never force a refresh.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "svm/memory.hpp"

namespace fsim::svm::exec {

class FastMem {
 public:
  bool valid(const Memory& m) const noexcept {
    return source_ == &m && version_ == m.window_version();
  }

  void refresh(Memory& m) noexcept {
    for (unsigned i = 0; i < kNumSegments; ++i) {
      const Segment s = kOrder[i];
      const std::span<std::byte> backed = m.segment_bytes(s);
      segs_[i].base = m.extent(s).base + m.window(s).lo;
      segs_[i].size = static_cast<std::uint32_t>(backed.size());
      segs_[i].data = backed.data();
      segs_[i].exec = s == Segment::kText || s == Segment::kLibText;
    }
    source_ = &m;
    version_ = m.window_version();
  }

  Trap load32(Addr addr, std::uint32_t& out) noexcept {
    if (addr % 4 != 0) return Trap::kMisaligned;
    if (const Seg* s = find(addr, 4)) {
      std::memcpy(&out, s->data + (addr - s->base), 4);
      return Trap::kNone;
    }
    return source_->load32(addr, out);
  }
  Trap store32(Addr addr, std::uint32_t value) noexcept {
    if (addr % 4 != 0) return Trap::kMisaligned;
    if (Seg* s = find(addr, 4)) {
      if (s->exec) return Trap::kWriteProtected;
      std::memcpy(s->data + (addr - s->base), &value, 4);
      return Trap::kNone;
    }
    return resync(source_->store32(addr, value));
  }
  Trap load8(Addr addr, std::uint8_t& out) noexcept {
    if (const Seg* s = find(addr, 1)) {
      out = static_cast<std::uint8_t>(s->data[addr - s->base]);
      return Trap::kNone;
    }
    return source_->load8(addr, out);
  }
  Trap store8(Addr addr, std::uint8_t value) noexcept {
    if (Seg* s = find(addr, 1)) {
      if (s->exec) return Trap::kWriteProtected;
      s->data[addr - s->base] = static_cast<std::byte>(value);
      return Trap::kNone;
    }
    return resync(source_->store8(addr, value));
  }
  Trap load64(Addr addr, std::uint64_t& out) noexcept {
    if (addr % 4 != 0) return Trap::kMisaligned;
    if (const Seg* s = find(addr, 8)) {
      std::memcpy(&out, s->data + (addr - s->base), 8);
      return Trap::kNone;
    }
    return source_->load64(addr, out);
  }
  Trap store64(Addr addr, std::uint64_t value) noexcept {
    if (addr % 4 != 0) return Trap::kMisaligned;
    if (Seg* s = find(addr, 8)) {
      if (s->exec) return Trap::kWriteProtected;
      std::memcpy(s->data + (addr - s->base), &value, 8);
      return Trap::kNone;
    }
    return resync(source_->store64(addr, value));
  }

 private:
  struct Seg {
    Addr base = 0;
    std::uint32_t size = 0;
    std::byte* data = nullptr;
    bool exec = false;
  };

  /// Searched data-segments-first: Memory::locate scans in enum order (text
  /// first), which taxes every load/store; extents are disjoint, so
  /// reordering the scan is semantics-neutral.
  static constexpr Segment kOrder[kNumSegments] = {
      Segment::kStack,   Segment::kData,   Segment::kBss,  Segment::kHeap,
      Segment::kLibData, Segment::kLibBss, Segment::kText, Segment::kLibText};

  // Inside a window with `bytes` of headroom. Windows lie inside disjoint
  // extents, so at most one segment matches and probing the last-hit
  // segment first is semantics-neutral.
  Seg* find(Addr addr, unsigned bytes) noexcept {
    Seg& m = segs_[mru_];
    const Addr moff = addr - m.base;
    if (moff < m.size && m.size - moff >= bytes) return &m;
    for (unsigned i = 0; i < kNumSegments; ++i) {
      Seg& s = segs_[i];
      const Addr off = addr - s.base;
      if (off < s.size && s.size - off >= bytes) {
        mru_ = i;
        return &s;
      }
    }
    return nullptr;
  }
  /// A store through Memory may have grown a window: pick it up now, since
  /// the engine re-checks valid() only between quanta and after syscalls.
  Trap resync(Trap t) noexcept {
    if (version_ != source_->window_version()) refresh(*source_);
    return t;
  }

  std::array<Seg, kNumSegments> segs_{};
  unsigned mru_ = 0;
  Memory* source_ = nullptr;    // snapshot identity: owner ...
  std::uint64_t version_ = 0;  // ... at this window version
};

}  // namespace fsim::svm::exec
