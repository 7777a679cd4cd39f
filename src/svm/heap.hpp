// Heap allocator with user/MPI chunk tagging.
//
// Reimplements the paper's malloc wrapper (§3.2): every chunk is preceded by
// an 8-byte header holding a 32-bit identifier ("allocated by the user
// application" vs "allocated by the MPI library") and the chunk size. The
// identifier is decided by a flag that the runtime sets on entry to an MPI
// routine and clears on exit. The injector enumerates live *user* chunks and
// flips a random payload bit.
//
// The allocator itself runs on the host but stores its headers inside the
// simulated heap segment, so the header bytes are part of the injectable
// address space exactly as with the GNU-libc hook approach.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "svm/memory.hpp"

namespace fsim::svm {

enum class AllocTag : std::uint32_t {
  kUser = 0x52455355,  // "USER"
  kMpi = 0x2049504d,   // "MPI "
};

class Heap {
 public:
  explicit Heap(Memory& mem);

  /// Allocate `size` payload bytes tagged with the current owner flag.
  /// `site` is the static allocation site (the pc of the `sys 8` word, the
  /// same value under both execution engines); 0 marks host-side or
  /// otherwise untracked allocations. Returns the payload address, or 0
  /// when the arena is exhausted.
  Addr malloc(std::uint32_t size, Addr site = 0);

  /// Free a chunk by payload address. Unknown addresses are ignored (a
  /// corrupted program may pass garbage; glibc would corrupt itself — we
  /// prefer to keep the host allocator sane and let the *simulated* damage
  /// show up through the data instead).
  void free(Addr payload);

  /// Resize a chunk, preserving min(old, new) payload bytes. Follows C
  /// semantics: realloc(0, n) allocates, realloc(p, 0) frees and returns 0;
  /// returns 0 (leaving the chunk intact) when the arena is exhausted.
  /// The new chunk keeps the ORIGINAL owner tag, not the current context —
  /// an MPI-library chunk grown inside user code stays MPI-owned.
  Addr realloc(Addr payload, std::uint32_t new_size);

  /// Paper §3.2: "At entry to an MPI routine, a flag is set, and on exit,
  /// the flag is unset" — chunks allocated while set are tagged MPI.
  void set_mpi_context(bool inside) noexcept { state_.mpi_context = inside; }
  bool mpi_context() const noexcept { return state_.mpi_context; }

  struct Chunk {
    Addr payload = 0;
    std::uint32_t size = 0;
    AllocTag tag = AllocTag::kUser;
    /// Static allocation site (pc of the allocating `sys 8`), 0 if
    /// untracked — the key the heap-liveness prune rung classifies by.
    Addr site = 0;
    bool operator==(const Chunk&) const = default;
  };

  /// Live chunks in address order (the injector's scan list).
  std::vector<Chunk> live_chunks() const;

  /// Total live payload bytes with the given tag (profile Table 1).
  std::uint64_t live_bytes(AllocTag tag) const;

  /// High-water mark of arena usage in bytes.
  std::uint32_t peak_usage() const noexcept { return state_.peak; }

  std::uint32_t capacity() const noexcept { return capacity_; }

  struct FreeBlock {
    std::uint32_t offset;  // from arena base (block includes no header)
    std::uint32_t size;
    bool operator==(const FreeBlock&) const = default;
  };

  // --- Checkpoint/restart support: the heap *metadata*, one value (the
  // arena bytes are part of the Memory snapshot) ---
  struct State {
    std::uint32_t brk = 0;  // bump pointer past the highest block ever carved
    std::uint32_t peak = 0;
    bool mpi_context = false;
    // Host-side authoritative book-keeping (survives simulated corruption).
    std::map<Addr, Chunk> live;         // keyed by payload address
    std::vector<FreeBlock> free_list;   // address-ordered, coalesced
    bool operator==(const State&) const = default;
  };
  const State& snapshot_state() const noexcept { return state_; }
  void restore_state(const State& s) { state_ = s; }

 private:
  static constexpr std::uint32_t kHeaderBytes = 8;
  static constexpr std::uint32_t kAlign = 8;

  void write_header(Addr header_addr, AllocTag tag, std::uint32_t size);

  Memory* mem_;
  Addr base_ = 0;
  std::uint32_t capacity_ = 0;
  State state_;
};

}  // namespace fsim::svm
