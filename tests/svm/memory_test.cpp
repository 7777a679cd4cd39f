#include "svm/memory.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "svm/exec/fastmem.hpp"

namespace fsim::svm {
namespace {

std::array<std::uint32_t, kNumSegments> sizes(std::uint32_t text,
                                              std::uint32_t data,
                                              std::uint32_t bss) {
  std::array<std::uint32_t, kNumSegments> s{};
  s[static_cast<unsigned>(Segment::kText)] = text;
  s[static_cast<unsigned>(Segment::kData)] = data;
  s[static_cast<unsigned>(Segment::kBss)] = bss;
  return s;
}

Memory make() { return Memory(sizes(0x1000, 0x100, 0x200), {}); }

// A memory's contents with the storage they are copied into.
struct Saved {
  explicit Saved(const Memory& m)
      : storage(m.contents_size()), contents(m.snapshot_contents(storage)) {}
  std::vector<std::byte> storage;
  Memory::Contents contents;
};

TEST(Memory, LayoutMatchesLinuxModel) {
  Memory m = make();
  EXPECT_EQ(m.extent(Segment::kText).base, kTextBase);
  EXPECT_GT(m.extent(Segment::kData).base, m.extent(Segment::kText).base);
  EXPECT_EQ(m.extent(Segment::kStack).end(), kStackTop);
  EXPECT_LT(m.extent(Segment::kHeap).end(), m.extent(Segment::kStack).base);
}

TEST(Memory, ResolveFindsSegments) {
  Memory m = make();
  EXPECT_EQ(m.resolve(kTextBase), Segment::kText);
  EXPECT_EQ(m.resolve(m.extent(Segment::kHeap).base), Segment::kHeap);
  EXPECT_EQ(m.resolve(kStackTop - 4), Segment::kStack);
  EXPECT_FALSE(m.resolve(0x1000).has_value());
  EXPECT_FALSE(m.resolve(kStackTop).has_value());
}

TEST(Memory, LoadStoreRoundTrip) {
  Memory m = make();
  const Addr a = m.extent(Segment::kData).base;
  EXPECT_EQ(m.store32(a, 0xcafebabe), Trap::kNone);
  std::uint32_t v = 0;
  EXPECT_EQ(m.load32(a, v), Trap::kNone);
  EXPECT_EQ(v, 0xcafebabeu);
}

TEST(Memory, UnmappedAccessTraps) {
  Memory m = make();
  std::uint32_t v = 0;
  EXPECT_EQ(m.load32(0x100, v), Trap::kBadAddress);
  EXPECT_EQ(m.store32(0xdddddddc, 1), Trap::kBadAddress);
}

TEST(Memory, MisalignedAccessTraps) {
  Memory m = make();
  std::uint32_t v = 0;
  EXPECT_EQ(m.load32(m.extent(Segment::kData).base + 2, v), Trap::kMisaligned);
}

TEST(Memory, CrossSegmentSpanTraps) {
  Memory m = make();
  // A 4-byte access straddling the end of data must not silently read into
  // the next segment.
  const Addr end = m.extent(Segment::kData).end();
  std::uint32_t v = 0;
  EXPECT_EQ(m.load32(end - 2, v), Trap::kMisaligned);
  std::uint64_t v64 = 0;
  EXPECT_EQ(m.load64(end - 4, v64), Trap::kBadAddress);
}

TEST(Memory, TextIsWriteProtected) {
  Memory m = make();
  EXPECT_EQ(m.store32(kTextBase, 1), Trap::kWriteProtected);
  EXPECT_EQ(m.store8(kTextBase, 1), Trap::kWriteProtected);
}

TEST(Memory, FetchOnlyFromCodeSegments) {
  Memory m = make();
  std::uint32_t v = 0;
  EXPECT_EQ(m.fetch32(kTextBase, v), Trap::kNone);
  EXPECT_EQ(m.fetch32(m.extent(Segment::kData).base, v), Trap::kBadAddress);
  EXPECT_EQ(m.fetch32(kStackTop - 8, v), Trap::kBadAddress);
}

TEST(Memory, PrivilegedPokeBypassesProtection) {
  // The injector can overwrite text, like ptrace POKETEXT.
  Memory m = make();
  EXPECT_TRUE(m.poke32(kTextBase, 0x12345678));
  std::uint32_t v = 0;
  EXPECT_TRUE(m.peek32(kTextBase, v));
  EXPECT_EQ(v, 0x12345678u);
}

TEST(Memory, PrivilegedAccessToUnmappedFails) {
  Memory m = make();
  std::uint8_t v = 0;
  EXPECT_FALSE(m.peek8(0x4, v));
  EXPECT_FALSE(m.poke8(0x4, 1));
}

TEST(Memory, FlipBitChangesSingleBit) {
  Memory m = make();
  const Addr a = m.extent(Segment::kBss).base + 17;
  EXPECT_TRUE(m.flip_bit(a, 3));
  std::uint8_t v = 0;
  EXPECT_TRUE(m.peek8(a, v));
  EXPECT_EQ(v, 0x08u);
  EXPECT_TRUE(m.flip_bit(a, 3));
  EXPECT_TRUE(m.peek8(a, v));
  EXPECT_EQ(v, 0x00u);
}

TEST(Memory, Load64RoundTrip) {
  Memory m = make();
  const Addr a = m.extent(Segment::kHeap).base + 8;
  EXPECT_EQ(m.store64(a, 0x0123456789abcdefULL), Trap::kNone);
  std::uint64_t v = 0;
  EXPECT_EQ(m.load64(a, v), Trap::kNone);
  EXPECT_EQ(v, 0x0123456789abcdefULL);
}

TEST(Memory, SpanAccessors) {
  Memory m = make();
  const Addr a = m.extent(Segment::kData).base;
  const std::array<std::byte, 4> in = {std::byte{1}, std::byte{2},
                                       std::byte{3}, std::byte{4}};
  EXPECT_TRUE(m.poke_span(a, in));
  std::array<std::byte, 4> out{};
  EXPECT_TRUE(m.peek_span(a, out));
  EXPECT_EQ(out, in);
}

TEST(Memory, LoadBeyondWindowReadsZero) {
  Memory m = make();
  // Heap and stack start unbacked; their whole capacity reads as zero.
  EXPECT_TRUE(m.segment_bytes(Segment::kHeap).empty());
  EXPECT_TRUE(m.segment_bytes(Segment::kStack).empty());
  std::uint32_t v = 1;
  const Addr heap = m.extent(Segment::kHeap).base;
  EXPECT_EQ(m.load32(heap + 0x800, v), Trap::kNone);
  EXPECT_EQ(v, 0u);
  std::uint64_t v64 = 1;
  EXPECT_EQ(m.load64(kStackTop - 0x400, v64), Trap::kNone);
  EXPECT_EQ(v64, 0u);
  std::uint8_t b = 1;
  EXPECT_TRUE(m.peek8(heap + 3, b));
  EXPECT_EQ(b, 0u);
  // Reads never back anything.
  const std::uint64_t version = m.window_version();
  EXPECT_TRUE(m.segment_bytes(Segment::kHeap).empty());
  EXPECT_TRUE(m.segment_bytes(Segment::kStack).empty());
  EXPECT_EQ(m.window_version(), version);
}

TEST(Memory, StoreGrowsWindow) {
  Memory m = make();
  const Addr heap = m.extent(Segment::kHeap).base;
  const std::uint64_t version = m.window_version();
  // Heap: [0, high-water). Bytes skipped over are zero-filled.
  ASSERT_EQ(m.store32(heap + 0x100, 0xdeadbeef), Trap::kNone);
  EXPECT_EQ(m.window(Segment::kHeap), (Memory::Window{0, 0x104}));
  EXPECT_GT(m.window_version(), version);
  std::uint32_t v = 1;
  EXPECT_EQ(m.load32(heap + 0x80, v), Trap::kNone);
  EXPECT_EQ(v, 0u);
  // A load straddling the high-water mark sees the backed half and zeros.
  std::uint64_t v64 = 0;
  ASSERT_EQ(m.load64(heap + 0x100, v64), Trap::kNone);
  EXPECT_EQ(v64, 0xdeadbeefull);
  // Stack: [low-water, top), grown by a privileged poke as well.
  const std::uint32_t cap = m.extent(Segment::kStack).size;
  ASSERT_EQ(m.store8(kStackTop - 0x21, 0x5a), Trap::kNone);
  EXPECT_EQ(m.window(Segment::kStack), (Memory::Window{cap - 0x21, cap}));
  ASSERT_TRUE(m.poke32(kStackTop - 0x40, 7));
  EXPECT_EQ(m.window(Segment::kStack), (Memory::Window{cap - 0x40, cap}));
  EXPECT_EQ(m.load32(kStackTop - 0x24, v), Trap::kNone);
  EXPECT_EQ(v, 0x5a000000u);
  EXPECT_EQ(m.segment_bytes(Segment::kStack).size(), 0x40u);
  // Stores inside the window leave it (and its version) alone.
  const std::uint64_t grown = m.window_version();
  ASSERT_EQ(m.store32(heap, 1), Trap::kNone);
  EXPECT_EQ(m.window_version(), grown);
}

TEST(Memory, AccessPastCapacityStillTraps) {
  Memory m = make();
  const SegmentExtent heap = m.extent(Segment::kHeap);
  const SegmentExtent stack = m.extent(Segment::kStack);
  std::uint32_t v = 0;
  std::uint64_t v64 = 0;
  // The window is empty, but bounds follow the capacity: the last word of
  // the arena is fine, the next one is unmapped.
  EXPECT_EQ(m.store32(heap.end() - 4, 1), Trap::kNone);
  EXPECT_EQ(m.load32(heap.end(), v), Trap::kBadAddress);
  EXPECT_EQ(m.store32(heap.end(), 1), Trap::kBadAddress);
  EXPECT_EQ(m.load64(heap.end() - 4, v64), Trap::kBadAddress);
  EXPECT_EQ(m.store32(stack.base - 4, 1), Trap::kBadAddress);
  EXPECT_EQ(m.load32(kStackTop, v), Trap::kBadAddress);
  EXPECT_FALSE(m.poke32(heap.end(), 1));
  EXPECT_FALSE(m.peek32(stack.base - 4, v));
  // A failed store grows nothing.
  EXPECT_EQ(m.window(Segment::kHeap), (Memory::Window{0, heap.size}));
  EXPECT_TRUE(m.segment_bytes(Segment::kStack).empty());
}

TEST(Memory, RestoreRewindsWindows) {
  Memory m = make();
  const Addr heap = m.extent(Segment::kHeap).base;
  ASSERT_EQ(m.store32(heap + 8, 11), Trap::kNone);
  const Saved saved(m);
  ASSERT_EQ(m.store32(heap + 0x1000, 22), Trap::kNone);
  ASSERT_EQ(m.store32(kStackTop - 4, 33), Trap::kNone);
  const std::uint64_t version = m.window_version();
  m.restore_contents(saved.contents);
  EXPECT_GT(m.window_version(), version);
  EXPECT_EQ(m.window(Segment::kHeap), (Memory::Window{0, 12}));
  EXPECT_TRUE(m.segment_bytes(Segment::kStack).empty());
  // The backing still holds the later stores; the window hides them.
  std::uint32_t v = 1;
  EXPECT_EQ(m.load32(heap + 0x1000, v), Trap::kNone);
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(m.load32(kStackTop - 4, v), Trap::kNone);
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(m.load32(heap + 8, v), Trap::kNone);
  EXPECT_EQ(v, 11u);
}

TEST(Memory, SealedTextIsNotCopiedAndRestoresOnlyWhenChanged) {
  Memory m = make();
  const std::vector<std::byte> text(m.extent(Segment::kText).size);
  m.seal_code(text, {});
  ASSERT_TRUE(m.code_pristine());
  const Saved pristine(m);
  EXPECT_TRUE(pristine.contents.code_pristine);
  EXPECT_TRUE(
      pristine.contents.bytes[static_cast<unsigned>(Segment::kText)].empty());
  // Restoring pristine text over pristine text touches nothing.
  const std::uint64_t code = m.code_version();
  m.restore_contents(pristine.contents);
  EXPECT_EQ(m.code_version(), code);
  // A text poke makes snapshots copy text; restoring the pristine snapshot
  // rewrites it from the sealed image and re-seals.
  ASSERT_TRUE(m.poke32(kTextBase, 0x12345678));
  EXPECT_FALSE(m.code_pristine());
  const Saved dirty(m);
  EXPECT_EQ(
      dirty.contents.bytes[static_cast<unsigned>(Segment::kText)].size(),
      text.size());
  m.restore_contents(pristine.contents);
  EXPECT_GT(m.code_version(), code + 1);
  EXPECT_TRUE(m.code_pristine());
  std::uint32_t v = 1;
  EXPECT_TRUE(m.peek32(kTextBase, v));
  EXPECT_EQ(v, 0u);
  // Equal text is left alone even when the snapshot carries a copy.
  m.restore_contents(dirty.contents);
  const std::uint64_t after = m.code_version();
  m.restore_contents(dirty.contents);
  EXPECT_EQ(m.code_version(), after);
}

TEST(Memory, FastMemFollowsWindows) {
  Memory m = make();
  exec::FastMem fm;
  fm.refresh(m);
  const Addr heap = m.extent(Segment::kHeap).base;
  const Saved empty(m);
  // Misses fall back to Memory: unbacked capacity reads 0, a store grows
  // the window and the cache picks it up at once.
  std::uint32_t v = 1;
  EXPECT_EQ(fm.load32(heap + 64, v), Trap::kNone);
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(fm.store32(heap + 64, 5), Trap::kNone);
  EXPECT_TRUE(fm.valid(m));
  EXPECT_EQ(fm.load32(heap + 64, v), Trap::kNone);
  EXPECT_EQ(v, 5u);
  // Bounds and protection are unchanged.
  EXPECT_EQ(fm.store32(m.extent(Segment::kHeap).end(), 1), Trap::kBadAddress);
  EXPECT_EQ(fm.store32(kTextBase, 1), Trap::kWriteProtected);
  EXPECT_EQ(fm.load32(heap + 2, v), Trap::kMisaligned);
  // A text poke leaves the cache valid; a restore that shrinks a window
  // does not, and after a refresh the stale bytes behind it read 0.
  ASSERT_TRUE(m.poke32(kTextBase, 7));
  EXPECT_TRUE(fm.valid(m));
  m.restore_contents(empty.contents);
  EXPECT_FALSE(fm.valid(m));
  fm.refresh(m);
  EXPECT_EQ(fm.load32(heap + 64, v), Trap::kNone);
  EXPECT_EQ(v, 0u);
}

class ObserverRecorder : public AccessObserver {
 public:
  int fetches = 0, loads = 0, stores = 0;
  Segment last_load_seg = Segment::kText;
  void on_fetch(Addr) override { ++fetches; }
  void on_load(Addr, unsigned, Segment s) override {
    ++loads;
    last_load_seg = s;
  }
  void on_store(Addr, unsigned, Segment) override { ++stores; }
};

TEST(Memory, ObserverSeesAccesses) {
  Memory m = make();
  ObserverRecorder obs;
  m.set_observer(&obs);
  std::uint32_t v = 0;
  ASSERT_EQ(m.fetch32(kTextBase, v), Trap::kNone);
  ASSERT_EQ(m.load32(m.extent(Segment::kBss).base, v), Trap::kNone);
  ASSERT_EQ(m.store32(m.extent(Segment::kData).base, 1), Trap::kNone);
  EXPECT_EQ(obs.fetches, 1);
  EXPECT_EQ(obs.loads, 1);
  EXPECT_EQ(obs.stores, 1);
  EXPECT_EQ(obs.last_load_seg, Segment::kBss);
}

TEST(Memory, ObserverNotCalledForPrivilegedAccess) {
  Memory m = make();
  ObserverRecorder obs;
  m.set_observer(&obs);
  std::uint32_t v = 0;
  m.peek32(kTextBase, v);
  m.poke32(m.extent(Segment::kData).base, 7);
  EXPECT_EQ(obs.fetches + obs.loads + obs.stores, 0);
}

TEST(Layout, BasesAreDeterministicAndOrdered) {
  std::array<std::uint32_t, kNumSegments> s{};
  s[0] = 100;
  const auto b1 = compute_segment_bases(s, 0x10000);
  const auto b2 = compute_segment_bases(s, 0x10000);
  EXPECT_EQ(b1, b2);
  // Non-stack segments strictly ordered.
  for (unsigned i = 1; i < kNumSegments - 1; ++i)
    EXPECT_GE(b1[i], b1[i - 1]);
}

}  // namespace
}  // namespace fsim::svm
