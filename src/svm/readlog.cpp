#include "svm/readlog.hpp"

#include <algorithm>

#include "svm/memory.hpp"
#include "util/status.hpp"

namespace fsim::svm {

namespace {

constexpr unsigned kGranule = ReadLog::kGranule;

constexpr std::size_t granules(std::uint32_t bytes) noexcept {
  return (std::size_t{bytes} + kGranule - 1) / kGranule;
}

/// `n` zero stamps in pages of their own.
Pages zeroed(std::size_t n) { return map_pages(n * sizeof(std::uint32_t)); }

}  // namespace

ReadLog::ReadLog(const Memory& memory) {
  for (unsigned i = 0; i < kNumSegments; ++i) {
    seg_base_[i] = memory.extent(static_cast<Segment>(i)).base;
    seg_size_[i] = memory.extent(static_cast<Segment>(i)).size;
  }
  const SegmentExtent& stack = memory.extent(Segment::kStack);
  // Every segment but the stack lies in [text base, heap end). The guard
  // slot past each code segment's end stamps there too, one granule past
  // the end at most.
  stamps_.low_base = memory.extent(Segment::kText).base;
  stamps_.low_size = memory.extent(Segment::kHeap).end() - stamps_.low_base;
  low_ = zeroed(granules(stamps_.low_size) + 1);
  stamps_.low_bias =
      reinterpret_cast<std::uintptr_t>(low_.get()) - stamps_.low_base;
  stack_ = zeroed(granules(stack.size));
  stamps_.stack_bias =
      reinterpret_cast<std::uintptr_t>(stack_.get()) - stack.base;
}

void ReadLog::stamp(unsigned seg, std::uint32_t off, std::size_t n) noexcept {
  if (n == 0) return;
  const Addr first = seg_base_[seg] + off;
  std::uint32_t* p = stamps_.at(first & ~Addr{kGranule - 1});
  const std::size_t count = (first + n - 1) / kGranule - first / kGranule + 1;
  std::fill_n(p, count, static_cast<std::uint32_t>(now));
}

bool ReadLog::read_after(Addr addr, std::uint64_t count) const noexcept {
  const auto stack = static_cast<unsigned>(Segment::kStack);
  if (addr - stamps_.low_base >= stamps_.low_size &&
      addr - seg_base_[stack] >= seg_size_[stack])
    return true;
  return *stamps_.at(addr & ~Addr{kGranule - 1}) > count;
}

bool ReadLog::operator==(const ReadLog& o) const noexcept {
  for (const Segment seg : {Segment::kText, Segment::kData, Segment::kBss,
                            Segment::kHeap, Segment::kStack}) {
    const auto i = static_cast<unsigned>(seg);
    if (seg_base_[i] != o.seg_base_[i] || seg_size_[i] != o.seg_size_[i])
      return false;
    const std::size_t n = granules(seg_size_[i]);
    if (!std::equal(stamps_.at(seg_base_[i]), stamps_.at(seg_base_[i]) + n,
                    o.stamps_.at(seg_base_[i])))
      return false;
  }
  return true;
}

}  // namespace fsim::svm
