#include "svm/memory.hpp"

#include <algorithm>
#include <cstring>

#include "util/status.hpp"

namespace fsim::svm {

Memory::Memory(const std::array<std::uint32_t, kNumSegments>& image_sizes,
               const Config& config) {
  // Lay segments out using the canonical layout shared with the assembler.
  std::array<std::uint32_t, kNumSegments> sizes = image_sizes;
  sizes[static_cast<unsigned>(Segment::kHeap)] = config.heap_capacity;
  sizes[static_cast<unsigned>(Segment::kStack)] = config.stack_capacity;
  const auto bases = compute_segment_bases(sizes, config.stack_capacity);
  // The mapping mirrors the layout: the packed segments sit at their
  // offsets from the text base, the stack reservation after the heap's.
  const auto stack = static_cast<unsigned>(Segment::kStack);
  const auto heap = static_cast<unsigned>(Segment::kHeap);
  const std::size_t stack_at = align_up(bases[heap] + sizes[heap]) - kTextBase;
  backing_ = map_pages(stack_at + align_up(sizes[stack]));
  for (unsigned i = 0; i < kNumSegments; ++i) {
    extents_[i].base = bases[i];
    extents_[i].size = sizes[i];
    bytes_[i] = backing_.get() + (i == stack ? stack_at : bases[i] - kTextBase);
    // The heap's window starts empty at its low end, the stack's at its
    // top; the image segments back all of their bytes.
    if (i == heap || i == stack) {
      const std::uint32_t at = i == stack ? sizes[i] : 0;
      windows_[i] = Window{at, at};
    } else {
      windows_[i] = Window{0, sizes[i]};
    }
  }
  // The heap must never collide with the stack reservation.
  FSIM_CHECK(extents_[heap].end() <= extents_[stack].base);
}

std::optional<Segment> Memory::resolve(Addr addr) const noexcept {
  for (unsigned i = 0; i < kNumSegments; ++i) {
    if (extents_[i].contains(addr)) return static_cast<Segment>(i);
  }
  return std::nullopt;
}

bool Memory::locate(Addr addr, unsigned size, unsigned& seg,
                    std::uint32_t& off) const noexcept {
  for (unsigned i = 0; i < kNumSegments; ++i) {
    const auto& e = extents_[i];
    if (e.contains(addr) &&
        std::uint64_t{addr - e.base} + size <= std::uint64_t{e.size}) {
      seg = i;
      off = addr - e.base;
      return true;
    }
  }
  return false;
}

void Memory::read(unsigned seg, std::uint32_t off, void* out,
                  std::size_t n) const noexcept {
  if (read_log_ != nullptr) read_log_->stamp(seg, off, n);
  const Window& w = windows_[seg];
  const std::byte* data = bytes_[seg];
  if (off >= w.lo && off + n <= w.hi) {
    std::memcpy(out, data + off, n);
    return;
  }
  std::memset(out, 0, n);
  const std::size_t lo = std::max<std::size_t>(off, w.lo);
  const std::size_t hi = std::min<std::size_t>(off + n, w.hi);
  if (lo < hi)
    std::memcpy(static_cast<std::byte*>(out) + (lo - off), data + lo, hi - lo);
}

std::byte* Memory::writable(unsigned seg, std::uint32_t off,
                            std::size_t n) noexcept {
  Window& w = windows_[seg];
  std::byte* data = bytes_[seg];
  const auto end = static_cast<std::uint32_t>(off + n);
  if (n != 0 && (off < w.lo || end > w.hi)) {
    const std::uint32_t lo = std::min(off, w.lo);
    const std::uint32_t hi = std::max(end, w.hi);
    std::memset(data + lo, 0, w.lo - lo);
    std::memset(data + w.hi, 0, hi - w.hi);
    w = Window{lo, hi};
    ++window_version_;
  }
  return data + off;
}

// Multi-byte accesses need 4-byte alignment; 8-byte FPU accesses need no
// more, as x86 tolerates.
Trap Memory::load(Addr addr, void* out, unsigned n) noexcept {
  if (n > 1 && addr % 4 != 0) return Trap::kMisaligned;
  unsigned seg = 0;
  std::uint32_t off = 0;
  if (!locate(addr, n, seg, off)) return Trap::kBadAddress;
  read(seg, off, out, n);
  if (observer_) observer_->on_load(addr, n, static_cast<Segment>(seg));
  return Trap::kNone;
}

Trap Memory::store(Addr addr, const void* in, unsigned n) noexcept {
  if (n > 1 && addr % 4 != 0) return Trap::kMisaligned;
  unsigned seg = 0;
  std::uint32_t off = 0;
  if (!locate(addr, n, seg, off)) return Trap::kBadAddress;
  if (is_code(seg)) return Trap::kWriteProtected;
  std::memcpy(writable(seg, off, n), in, n);
  if (observer_) observer_->on_store(addr, n, static_cast<Segment>(seg));
  return Trap::kNone;
}

Trap Memory::fetch32(Addr addr, std::uint32_t& out) noexcept {
  if (addr % 4 != 0) return Trap::kMisaligned;
  unsigned seg = 0;
  std::uint32_t off = 0;
  if (!locate(addr, 4, seg, off)) return Trap::kBadAddress;
  if (!is_code(seg)) return Trap::kBadAddress;  // only code is executable
  read(seg, off, &out, 4);
  if (observer_) observer_->on_fetch(addr);
  return Trap::kNone;
}

Trap Memory::load32(Addr addr, std::uint32_t& out) noexcept {
  return load(addr, &out, 4);
}
Trap Memory::store32(Addr addr, std::uint32_t value) noexcept {
  return store(addr, &value, 4);
}
Trap Memory::load8(Addr addr, std::uint8_t& out) noexcept {
  return load(addr, &out, 1);
}
Trap Memory::store8(Addr addr, std::uint8_t value) noexcept {
  return store(addr, &value, 1);
}
Trap Memory::load64(Addr addr, std::uint64_t& out) noexcept {
  return load(addr, &out, 8);
}
Trap Memory::store64(Addr addr, std::uint64_t value) noexcept {
  return store(addr, &value, 8);
}

bool Memory::peek_span(Addr addr, std::span<std::byte> out) const noexcept {
  unsigned seg = 0;
  std::uint32_t off = 0;
  if (!locate(addr, static_cast<unsigned>(out.size()), seg, off)) return false;
  read(seg, off, out.data(), out.size());
  return true;
}

bool Memory::poke_span(Addr addr, std::span<const std::byte> in) noexcept {
  unsigned seg = 0;
  std::uint32_t off = 0;
  if (!locate(addr, static_cast<unsigned>(in.size()), seg, off)) return false;
  std::memcpy(writable(seg, off, in.size()), in.data(), in.size());
  note_poke(seg);
  return true;
}

bool Memory::peek8(Addr addr, std::uint8_t& out) const noexcept {
  return peek_span(addr, std::as_writable_bytes(std::span(&out, 1)));
}
bool Memory::poke8(Addr addr, std::uint8_t value) noexcept {
  return poke_span(addr, std::as_bytes(std::span(&value, 1)));
}
bool Memory::peek32(Addr addr, std::uint32_t& out) const noexcept {
  return peek_span(addr, std::as_writable_bytes(std::span(&out, 1)));
}
bool Memory::poke32(Addr addr, std::uint32_t value) noexcept {
  return poke_span(addr, std::as_bytes(std::span(&value, 1)));
}
bool Memory::peek64(Addr addr, std::uint64_t& out) const noexcept {
  return peek_span(addr, std::as_writable_bytes(std::span(&out, 1)));
}
bool Memory::poke64(Addr addr, std::uint64_t value) noexcept {
  return poke_span(addr, std::as_bytes(std::span(&value, 1)));
}

bool Memory::flip_bit(Addr addr, unsigned bit) noexcept {
  std::uint8_t v{};
  if (!peek8(addr, v)) return false;
  return poke8(addr, static_cast<std::uint8_t>(v ^ (1u << (bit & 7u))));
}

std::span<std::byte> Memory::segment_bytes(Segment s) noexcept {
  const auto i = static_cast<unsigned>(s);
  return {bytes_[i] + windows_[i].lo, windows_[i].hi - windows_[i].lo};
}

std::span<const std::byte> Memory::segment_bytes(Segment s) const noexcept {
  return const_cast<Memory*>(this)->segment_bytes(s);
}

void Memory::seal_code(std::span<const std::byte> text,
                       std::span<const std::byte> libtext) noexcept {
  sealed_code_[static_cast<unsigned>(Segment::kText)] = text;
  sealed_code_[static_cast<unsigned>(Segment::kLibText)] = libtext;
  sealed_code_version_ = code_version_;
}

std::size_t Memory::contents_size() const noexcept {
  std::size_t total = 0;
  for (unsigned i = 0; i < kNumSegments; ++i)
    if (!(is_code(i) && code_pristine()))
      total += windows_[i].hi - windows_[i].lo;
  return total;
}

Memory::Contents Memory::snapshot_contents(std::span<std::byte> into) const {
  FSIM_CHECK(into.size() >= contents_size());
  Contents c;
  c.windows = windows_;
  c.code_pristine = code_pristine();
  std::byte* at = into.data();
  for (unsigned i = 0; i < kNumSegments; ++i) {
    if (c.code_pristine && is_code(i)) continue;
    const auto b = segment_bytes(static_cast<Segment>(i));
    if (!b.empty()) std::memcpy(at, b.data(), b.size());
    c.bytes[i] = {at, b.size()};
    at += b.size();
  }
  return c;
}

namespace {

/// One segment on the two sides of a compare. Each side reads its bytes
/// inside its window and 0 outside it.
struct SegmentPair {
  using Window = Memory::Window;
  Window a, b;
  const std::byte* here;   // the byte at offset 0 of a's backing
  const std::byte* there;  // the byte at offset b.lo

  /// Do offsets [lo, hi) read the same on both sides?
  bool same(std::uint32_t lo, std::uint32_t hi) const noexcept {
    // Where both windows back [lo, hi), the bytes compare directly.
    std::uint32_t both_lo = std::max({lo, a.lo, b.lo});
    std::uint32_t both_hi = std::min({hi, a.hi, b.hi});
    if (both_lo < both_hi &&
        std::memcmp(here + both_lo, there + (both_lo - b.lo),
                    both_hi - both_lo) != 0)
      return false;
    if (both_lo >= both_hi) both_lo = both_hi = hi;
    // Elsewhere at most one side backs a byte, and it must read 0.
    const auto zero = [&](const Window& w, const std::byte* data,
                          std::uint32_t data_lo) {
      const auto all_zero = [&](std::uint32_t from, std::uint32_t to) {
        return from >= to ||
               std::all_of(data + (from - data_lo), data + (to - data_lo),
                           [](std::byte x) { return x == std::byte{}; });
      };
      const std::uint32_t w_lo = std::max(lo, w.lo);
      const std::uint32_t w_hi = std::min(hi, w.hi);
      return all_zero(w_lo, std::min(w_hi, both_lo)) &&
             all_zero(std::max(w_lo, both_hi), w_hi);
    };
    return zero(a, here, 0) && zero(b, there, b.lo);
  }
};

/// Bytes the dead-granule walk compares at once before it looks at single
/// granules (a multiple of ReadLog::kGranule).
constexpr std::uint32_t kWalkBlock = 256;

}  // namespace

Match Memory::same_contents(const Contents& c, const ReadLog* log,
                            std::uint64_t count) const noexcept {
  if (c.code_pristine != code_pristine()) return Match::kDiffers;
  constexpr std::uint32_t kGranule = ReadLog::kGranule;
  Match result = Match::kExact;
  for (unsigned i = 0; i < kNumSegments; ++i) {
    if (is_code(i) && c.code_pristine) continue;
    const SegmentPair seg{windows_[i], c.windows[i], bytes_[i],
                          c.bytes[i].data()};
    const std::uint32_t lo = std::min(seg.a.lo, seg.b.lo);
    const std::uint32_t hi = std::max(seg.a.hi, seg.b.hi);
    if (seg.same(lo, hi)) continue;
    // Text stays strict: a flip the golden run never fetches again has
    // already ended its run at injection.
    if (log == nullptr || is_code(i)) return Match::kDiffers;
    // A granule may differ if the golden run reads nothing of it after
    // `count`. Walk the blocks that differ, then their granules, in place.
    const Addr base = extents_[i].base;
    for (std::uint32_t at = lo & ~(kGranule - 1); at < hi; at += kWalkBlock) {
      const std::uint32_t end = std::min(at + kWalkBlock, hi);
      if (seg.same(std::max(at, lo), end)) continue;
      for (std::uint32_t g = at; g < end; g += kGranule)
        if (!seg.same(std::max(g, lo), std::min(g + kGranule, end)) &&
            log->read_after(base + g, count))
          return Match::kDiffers;
    }
    result = Match::kObservable;
  }
  return result;
}

void Memory::restore_code(unsigned seg, std::span<const std::byte> bytes) noexcept {
  FSIM_CHECK(bytes.size() == extents_[seg].size);
  if (bytes.empty() ||
      std::memcmp(bytes_[seg], bytes.data(), bytes.size()) == 0)
    return;
  std::memcpy(bytes_[seg], bytes.data(), bytes.size());
  ++code_version_;
}

void Memory::restore_contents(const Contents& c) {
  for (unsigned i = 0; i < kNumSegments; ++i) {
    if (is_code(i)) {
      if (c.code_pristine && code_pristine()) continue;
      restore_code(i, c.code_pristine ? sealed_code_[i] : c.bytes[i]);
      continue;
    }
    const Window& w = c.windows[i];
    FSIM_CHECK(w.lo <= w.hi && w.hi <= extents_[i].size &&
               c.bytes[i].size() == w.hi - w.lo);
    windows_[i] = w;
    if (!c.bytes[i].empty())
      std::memcpy(bytes_[i] + w.lo, c.bytes[i].data(), c.bytes[i].size());
  }
  if (c.code_pristine) sealed_code_version_ = code_version_;
  ++window_version_;
}

}  // namespace fsim::svm
