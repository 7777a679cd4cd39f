#include "core/injector.hpp"

#include <sstream>

#include "svm/stackwalk.hpp"
#include "util/bits.hpp"
#include "util/status.hpp"

namespace fsim::core {

namespace {

std::string hexaddr(svm::Addr a) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", a);
  return buf;
}

/// One applied FPU flip: the description plus, for data-register hits, the
/// physical slot — the static depth analysis can prove emptiness only for
/// data bits (TWD/special-register flips perturb the control state itself).
struct FpuFlip {
  std::string what;
  std::optional<unsigned> data_slot;
};

/// Flip bit `bit` of the x87-style FPU state vector. The vector mirrors
/// §3.2's targets: eight data registers plus the special registers (CWD,
/// SWD, TWD, FIP, FCS, FOO, FOS).
FpuFlip flip_fpu_bit(svm::Fpu& fpu, unsigned bit) {
  constexpr unsigned kDataBits = svm::kNumFpr * 64;  // 512
  constexpr unsigned kTwd = kDataBits;               // 16 bits
  constexpr unsigned kCwd = kTwd + 16;
  constexpr unsigned kSwd = kCwd + 16;
  constexpr unsigned kFip = kSwd + 16;
  constexpr unsigned kFcs = kFip + 32;
  constexpr unsigned kFoo = kFcs + 32;
  constexpr unsigned kFos = kFoo + 32;
  static_assert(kFos + 32 == kFpuStateBits);

  FpuFlip flip;
  std::ostringstream what;
  if (bit < kDataBits) {
    const unsigned reg = bit / 64, b = bit % 64;
    fpu.raw(reg) = util::flip_bit64(fpu.raw(reg), b);
    what << "fpu data reg " << reg << " bit " << b;
    flip.data_slot = reg;
  } else if (bit < kCwd) {
    fpu.twd() ^= static_cast<std::uint16_t>(1u << (bit - kTwd));
    what << "TWD bit " << bit - kTwd;
  } else if (bit < kSwd) {
    fpu.cwd() ^= static_cast<std::uint16_t>(1u << (bit - kCwd));
    what << "CWD bit " << bit - kCwd;
  } else if (bit < kFip) {
    fpu.swd() ^= static_cast<std::uint16_t>(1u << (bit - kSwd));
    what << "SWD bit " << bit - kSwd;
  } else if (bit < kFcs) {
    fpu.fip() ^= 1u << (bit - kFip);
    what << "FIP bit " << bit - kFip;
  } else if (bit < kFoo) {
    fpu.fcs() ^= 1u << (bit - kFcs);
    what << "FCS bit " << bit - kFcs;
  } else if (bit < kFos) {
    fpu.foo() ^= 1u << (bit - kFoo);
    what << "FOO bit " << bit - kFoo;
  } else {
    fpu.fos() ^= 1u << (bit - kFos);
    what << "FOS bit " << bit - kFos;
  }
  flip.what = what.str();
  return flip;
}

/// Can the injector's poke reach the byte at `addr`? (Memory::flip_bit
/// succeeds exactly where peek8 does.)
bool peekable(const svm::Memory& mem, svm::Addr addr) {
  std::uint8_t v{};
  return mem.peek8(addr, v);
}

}  // namespace

std::optional<AppliedFault> Injector::draw_in_rank(simmpi::World& world,
                                                   int rank,
                                                   util::Rng& rng) const {
  const svm::Machine& m = world.machine(rank);
  if (m.state() == svm::RunState::kExited ||
      m.state() == svm::RunState::kTrapped)
    return std::nullopt;

  AppliedFault fault;
  fault.region = region_;
  fault.rank = rank;
  std::ostringstream what;

  switch (region_) {
    case Region::kRegularReg: {
      const unsigned reg = static_cast<unsigned>(rng.below(svm::kNumGpr));
      const unsigned bit = static_cast<unsigned>(rng.below(32));
      fault.reg = reg;
      fault.bit = bit;
      what << "r" << reg << " bit " << bit;
      // Static verdict at the paused pc: a register outside the may-live
      // set is overwritten before any read on every path, so the flip is
      // provably inactive. (pc outside the analyzed code — e.g. at the
      // exit sentinel — stays kUnknown.)
      if (analysis_ != nullptr && analysis_->covers(m.regs().pc)) {
        fault.activation = analysis_->register_dead_at(m.regs().pc, reg)
                               ? Activation::kDead
                               : Activation::kLive;
        if (fault.activation == Activation::kDead)
          fault.rung = PruneRung::kBase;
      }
      break;
    }
    case Region::kFpReg: {
      fault.bit = static_cast<unsigned>(rng.below(kFpuStateBits));
      svm::Fpu flipped = m.regs().fpu;
      const FpuFlip flip = flip_fpu_bit(flipped, fault.bit);
      what << flip.what;
      fault.inert = flipped.observably_equal(m.regs().fpu);
      // Static verdict for data-register hits: if the physical slot is
      // provably empty at the paused pc (anchored depth bound), the flipped
      // bits sit behind a kEmpty tag — reads see QNaN regardless and the
      // only empty->occupied transition is a full 64-bit overwrite — so the
      // fault is provably inactive. TWD/special-register flips stay
      // kUnknown: they corrupt the control state the proof relies on.
      if (flip.data_slot && analysis_ != nullptr &&
          analysis_->covers(m.regs().pc)) {
        // Ladder attribution: credit the context-insensitive proof first;
        // the context-sensitive rung gets only the slots it alone decides.
        if (analysis_->fpu_slot_dead_at(m.regs().pc, *flip.data_slot)) {
          fault.activation = Activation::kDead;
          fault.rung = PruneRung::kBase;
        } else if (analysis_->fpu_slot_dead_ctx(m.regs().pc,
                                                *flip.data_slot)) {
          fault.activation = Activation::kDead;
          fault.rung = PruneRung::kFpCtx;
        } else {
          fault.activation = Activation::kLive;
        }
      }
      break;
    }
    case Region::kText:
    case Region::kData:
    case Region::kBss: {
      FSIM_CHECK(dictionary_ != nullptr);
      if (dictionary_->empty()) return std::nullopt;
      const DictEntry& e = dictionary_->pick(rng);
      const unsigned bit = static_cast<unsigned>(rng.below(8));
      if (!peekable(m.memory(), e.address)) return std::nullopt;
      fault.address = e.address;
      fault.bit = bit;
      what << region_name(region_) << " '" << e.symbol << "' at "
           << hexaddr(e.address) << " bit " << bit;
      fault.activation = e.activation;
      fault.rung = e.rung;
      // Time-windowed liveness: a data/BSS byte that is live somewhere may
      // still be past its last read *at this point in the run* — every
      // future path is read-free, so the flip is never observed. The
      // window check is keyed on the paused rank's pc (memory is per-rank).
      if ((region_ == Region::kData || region_ == Region::kBss) &&
          fault.activation == Activation::kLive && analysis_ != nullptr &&
          analysis_->covers(m.regs().pc) &&
          analysis_->data_byte_dead_at(e.address, m.regs().pc)) {
        fault.activation = Activation::kDead;
        fault.rung = PruneRung::kTimeWindow;
      }
      break;
    }
    case Region::kHeap: {
      // §3.2: "starting at a random address, the injector looks for any
      // memory chunk marked as user. Once located, a random bit in the
      // chunk is flipped." A random starting address lands in a chunk with
      // probability proportional to its size, so the draw is byte-weighted
      // across the live user chunks.
      const auto chunks = world.process(rank).heap().live_chunks();
      std::uint64_t user_bytes = 0;
      for (const auto& c : chunks)
        if (c.tag == svm::AllocTag::kUser) user_bytes += c.size;
      if (user_bytes == 0) return std::nullopt;
      std::uint64_t off = rng.below(user_bytes);
      const svm::Heap::Chunk* hit = nullptr;
      for (const auto& c : chunks) {
        if (c.tag != svm::AllocTag::kUser) continue;
        if (off < c.size) {
          hit = &c;
          break;
        }
        off -= c.size;
      }
      FSIM_CHECK(hit != nullptr);
      const unsigned bit = static_cast<unsigned>(rng.below(8));
      const svm::Addr addr = hit->payload + static_cast<svm::Addr>(off);
      if (!peekable(m.memory(), addr)) return std::nullopt;
      fault.address = addr;
      fault.bit = bit;
      what << "heap chunk at " << hexaddr(hit->payload) << " (" << hit->size
           << " B) byte " << off << " bit " << bit;
      // Allocation-site liveness: every byte of a chunk whose site is
      // write-only (or entombed) is provably never read; otherwise the
      // site's read window may still have closed at the paused pc. Chunks
      // without a tracked site (realloc-grown clones) stay kLive.
      if (analysis_ != nullptr) {
        if (hit->site != 0 && analysis_->heap_site_dead(hit->site)) {
          fault.activation = Activation::kDead;
          fault.rung = PruneRung::kHeap;
        } else if (hit->site != 0 && analysis_->covers(m.regs().pc) &&
                   analysis_->heap_site_dead_at(hit->site, m.regs().pc)) {
          fault.activation = Activation::kDead;
          fault.rung = PruneRung::kHeap;
        } else {
          fault.activation = Activation::kLive;
        }
      }
      break;
    }
    case Region::kStack: {
      // §3.2: walk EBP/ESP frames; only frames in user context are targets.
      const auto frames = svm::user_frames(m);
      std::uint64_t total = 0;
      for (const auto& f : frames) total += f.hi - f.lo;
      if (total == 0) return std::nullopt;
      std::uint64_t off = rng.below(total);
      svm::Addr addr = 0;
      const svm::Frame* owner = nullptr;
      for (const auto& f : frames) {
        const std::uint64_t span = f.hi - f.lo;
        if (off < span) {
          addr = f.lo + static_cast<svm::Addr>(off);
          owner = &f;
          break;
        }
        off -= span;
      }
      const unsigned bit = static_cast<unsigned>(rng.below(8));
      if (!peekable(m.memory(), addr)) return std::nullopt;
      fault.address = addr;
      fault.bit = bit;
      what << "stack at " << hexaddr(addr) << " bit " << bit;
      // Activation-windowed frame liveness: attribute the byte to the
      // sampled frame via its fp and the walker's owner pc, then ask the
      // stack rung whether that activation can ever read the slot again.
      if (analysis_ != nullptr && owner != nullptr) {
        const auto slot = static_cast<std::int32_t>(addr - owner->fp);
        fault.activation = analysis_->stack_slot_dead(owner->owner_pc, slot)
                               ? Activation::kDead
                               : Activation::kLive;
        if (fault.activation == Activation::kDead)
          fault.rung = PruneRung::kFrame;
      }
      break;
    }
    case Region::kMessage:
      // Message faults are armed on the channel before the run, not here.
      return std::nullopt;
    case Region::kCount:
      return std::nullopt;
  }

  fault.target = what.str();
  return fault;
}

std::optional<AppliedFault> Injector::draw(simmpi::World& world,
                                           util::Rng& rng) const {
  // Pick a random rank; if it has no viable target (e.g. its heap is empty),
  // fall through the others in rotation.
  const int n = world.size();
  const int start = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  for (int i = 0; i < n; ++i) {
    if (auto f = draw_in_rank(world, (start + i) % n, rng)) return f;
  }
  return std::nullopt;
}

void Injector::apply(simmpi::World& world, const AppliedFault& fault) {
  svm::Machine& m = world.machine(fault.rank);
  if (fault.region == Region::kRegularReg) {
    m.regs().gpr[fault.reg] = util::flip_bit32(m.regs().gpr[fault.reg],
                                               fault.bit);
  } else if (fault.region == Region::kFpReg) {
    (void)flip_fpu_bit(m.regs().fpu, fault.bit);
  } else {
    const bool flipped =
        fault.address && m.memory().flip_bit(*fault.address, fault.bit);
    FSIM_CHECK(flipped);
  }
}

std::optional<AppliedFault> Injector::inject(simmpi::World& world,
                                             util::Rng& rng) const {
  auto fault = draw(world, rng);
  if (fault) apply(world, *fault);
  return fault;
}

}  // namespace fsim::core
