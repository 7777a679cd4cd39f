// Segmented address space of one SVM process.
//
// Accesses are validated against segment bounds — touching an unmapped
// address raises the SIGSEGV-analogue trap, stores into text raise the
// write-protection trap — while the fault injector uses the privileged
// peek/poke interface that bypasses protection, exactly as ptrace() lets the
// paper's injector overwrite a halted process (§3.1).
//
// An address space costs what it touches. Every segment reserves its full
// capacity up front, all of them in one anonymous mapping (svm/pages.hpp),
// so no data pointer ever moves and no byte of it lives in the malloc
// heap. Each segment backs only a window of its reservation: text, data
// and BSS back their whole image, the heap backs [0, high-water) and the
// stack [low-water, top). A load between the window and the capacity
// reads 0; a store (or poke) there grows the window and zero-fills just
// the bytes it adds. Bounds and traps follow the capacity, never the
// window, so windows are invisible to the program.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "svm/layout.hpp"
#include "svm/pages.hpp"
#include "svm/readlog.hpp"
#include "svm/trap.hpp"

namespace fsim::svm {

/// Observer for the working-set analysis (Tables 5-7). Fetches and loads are
/// reported with their resolved segment.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  virtual void on_fetch(Addr addr) = 0;
  virtual void on_load(Addr addr, unsigned bytes, Segment seg) = 0;
  virtual void on_store(Addr addr, unsigned bytes, Segment seg) = 0;
};

struct SegmentExtent {
  Addr base = 0;
  std::uint32_t size = 0;  // mapped bytes; 0 means segment absent
  bool contains(Addr a) const noexcept {
    return a >= base && a - base < size;
  }
  Addr end() const noexcept { return base + size; }
};

class Memory {
 public:
  struct Config {
    std::uint32_t heap_capacity = 1u << 20;   // 1 MiB malloc arena
    std::uint32_t stack_capacity = 1u << 16;  // 64 KiB stack reservation
  };

  /// Backed part of a segment, as offsets from its base: [lo, hi).
  struct Window {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    bool operator==(const Window&) const = default;
  };

  /// Lay out segments given the image sizes (text/data/... contents are
  /// copied in by the loader afterwards via poke_span).
  Memory(const std::array<std::uint32_t, kNumSegments>& image_sizes,
         const Config& config);

  const SegmentExtent& extent(Segment s) const noexcept {
    return extents_[static_cast<unsigned>(s)];
  }
  const Window& window(Segment s) const noexcept {
    return windows_[static_cast<unsigned>(s)];
  }

  /// Segment containing `addr`, if mapped.
  std::optional<Segment> resolve(Addr addr) const noexcept;

  // --- Program-visible accessors (protection-checked, observed) ---
  Trap fetch32(Addr addr, std::uint32_t& out) noexcept;   // text/libtext only
  Trap load32(Addr addr, std::uint32_t& out) noexcept;
  Trap store32(Addr addr, std::uint32_t value) noexcept;
  Trap load8(Addr addr, std::uint8_t& out) noexcept;
  Trap store8(Addr addr, std::uint8_t value) noexcept;
  Trap load64(Addr addr, std::uint64_t& out) noexcept;    // FPU doubles
  Trap store64(Addr addr, std::uint64_t value) noexcept;

  // --- Privileged accessors (injector / loader / host runtime) ---
  // No protection checks, no observer callbacks; false when unmapped.
  bool peek8(Addr addr, std::uint8_t& out) const noexcept;
  bool poke8(Addr addr, std::uint8_t value) noexcept;
  bool peek32(Addr addr, std::uint32_t& out) const noexcept;
  bool poke32(Addr addr, std::uint32_t value) noexcept;
  bool peek64(Addr addr, std::uint64_t& out) const noexcept;
  bool poke64(Addr addr, std::uint64_t value) noexcept;
  bool peek_span(Addr addr, std::span<std::byte> out) const noexcept;
  bool poke_span(Addr addr, std::span<const std::byte> in) noexcept;

  /// Flip a single bit anywhere in the mapped address space (privileged).
  bool flip_bit(Addr addr, unsigned bit) noexcept;

  void set_observer(AccessObserver* obs) noexcept { observer_ = obs; }
  AccessObserver* observer() const noexcept { return observer_; }

  /// Stamp every read — loads, fetches and the privileged peeks alike —
  /// into `log` (the golden run's read oracle, svm/readlog.hpp); null stops.
  void set_read_log(ReadLog* log) noexcept { read_log_ = log; }
  ReadLog* read_log() const noexcept { return read_log_; }

  /// Monotonic counter bumped whenever a privileged poke lands in a code
  /// segment (or a restore actually changes text). Execution engines
  /// compare it against the version their pre-decoded stream was lowered
  /// at and re-lower stale blocks — this is how injected text flips
  /// invalidate compiled code.
  std::uint64_t code_version() const noexcept { return code_version_; }

  /// Monotonic counter bumped whenever a window changes: a store or poke
  /// grows one, a restore replaces them. Engines that cache windows
  /// (exec/fastmem.hpp) key their copy to it.
  std::uint64_t window_version() const noexcept { return window_version_; }

  /// Backed bytes of a segment — its window (host-side, e.g. for text
  /// re-lowering). Valid until the window next changes; the segment's
  /// backing itself never moves.
  std::span<std::byte> segment_bytes(Segment s) noexcept;
  std::span<const std::byte> segment_bytes(Segment s) const noexcept;

  /// Mark the current text as the loaded image (`text`, `libtext`: the
  /// program's code images, which must outlive this Memory). Until the
  /// next text poke, snapshots skip the code segments.
  void seal_code(std::span<const std::byte> text,
                 std::span<const std::byte> libtext) noexcept;
  bool code_pristine() const noexcept {
    return code_version_ == sealed_code_version_;
  }

  // --- Checkpoint/restart support ---
  /// Every window and its bytes; code segments are left empty while
  /// code_pristine() holds. The bytes are views into storage the caller
  /// provides (a Snapshot keeps every rank's in one mapping).
  struct Contents {
    std::array<Window, kNumSegments> windows{};
    std::array<std::span<const std::byte>, kNumSegments> bytes{};
    bool code_pristine = false;
  };
  /// Bytes snapshot_contents() copies out.
  std::size_t contents_size() const noexcept;
  /// Copy the contents out into `into`, which holds contents_size() bytes
  /// and must outlive the result.
  Contents snapshot_contents(std::span<std::byte> into) const;
  /// Does every address read the same here as in `c`? Windows may differ:
  /// a byte outside a window reads 0, so only the bytes count. Text still
  /// holding the loaded image on one side must do so on the other. Given
  /// a golden read oracle `log` (null: compare strictly) and the rank's
  /// instruction count `count` at `c`, a data, BSS, heap or stack granule
  /// may also differ if `log` has no read of it after `count`
  /// (kObservable); text stays strict.
  Match same_contents(const Contents& c, const ReadLog* log,
                      std::uint64_t count) const noexcept;
  /// Rewind to `c`. Text is rewritten — and code_version bumped — only
  /// where its bytes actually differ.
  void restore_contents(const Contents& c);

 private:
  /// Segment index holding [addr, addr + size) within its capacity and the
  /// offset of `addr` in it; false when unmapped.
  bool locate(Addr addr, unsigned size, unsigned& seg,
              std::uint32_t& off) const noexcept;
  /// The program-visible accessors: alignment, bounds, protection, observer.
  Trap load(Addr addr, void* out, unsigned n) noexcept;
  Trap store(Addr addr, const void* in, unsigned n) noexcept;
  /// Copy [off, off + n) of segment `seg` out, reading 0 outside its window.
  void read(unsigned seg, std::uint32_t off, void* out,
            std::size_t n) const noexcept;
  /// Backing of [off, off + n) in segment `seg`, growing its window over it.
  std::byte* writable(unsigned seg, std::uint32_t off, std::size_t n) noexcept;
  /// Overwrite code segment `seg` with `bytes` if they differ.
  void restore_code(unsigned seg, std::span<const std::byte> bytes) noexcept;
  static bool is_code(unsigned seg) noexcept {
    return seg == static_cast<unsigned>(Segment::kText) ||
           seg == static_cast<unsigned>(Segment::kLibText);
  }
  void note_poke(unsigned seg) noexcept {
    if (is_code(seg)) ++code_version_;
  }

  std::array<SegmentExtent, kNumSegments> extents_{};
  Pages backing_;  // every segment's reservation, page-aligned
  std::array<std::byte*, kNumSegments> bytes_{};  // each one's offset 0
  std::array<Window, kNumSegments> windows_{};
  std::array<std::span<const std::byte>, kNumSegments> sealed_code_{};
  AccessObserver* observer_ = nullptr;
  ReadLog* read_log_ = nullptr;
  std::uint64_t code_version_ = 0;
  std::uint64_t sealed_code_version_ = ~std::uint64_t{0};
  std::uint64_t window_version_ = 0;
};

}  // namespace fsim::svm
