#include "svm/analysis/valuerange.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "svm/analysis/dataflow.hpp"
#include "svm/analysis/defuse.hpp"

namespace fsim::svm::analysis {

namespace {

constexpr Interval kTopI{};

constexpr Interval single(std::uint32_t v) noexcept { return {v, v}; }

Interval join(const Interval& a, const Interval& b) noexcept {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

bool same(const Interval& a, const Interval& b) noexcept {
  return a.lo == b.lo && a.hi == b.hi;
}

/// [lo, hi] shifted by a signed constant; TOP whenever any member could
/// wrap around 2^32 (the machine wraps, the interval must not lie).
Interval iv_addc(const Interval& a, std::int64_t c) noexcept {
  if (a.top()) return kTopI;
  const std::int64_t lo = static_cast<std::int64_t>(a.lo) + c;
  const std::int64_t hi = static_cast<std::int64_t>(a.hi) + c;
  if (lo < 0 || hi > 0xffffffffll) return kTopI;
  return {static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
}

Interval iv_add(const Interval& a, const Interval& b) noexcept {
  if (a.top() || b.top()) return kTopI;
  const std::uint64_t hi =
      static_cast<std::uint64_t>(a.hi) + static_cast<std::uint64_t>(b.hi);
  if (hi > 0xffffffffull) return kTopI;
  return {a.lo + b.lo, static_cast<std::uint32_t>(hi)};
}

Interval iv_sub(const Interval& a, const Interval& b) noexcept {
  if (a.top() || b.top()) return kTopI;
  const std::int64_t lo =
      static_cast<std::int64_t>(a.lo) - static_cast<std::int64_t>(b.hi);
  if (lo < 0) return kTopI;
  return {static_cast<std::uint32_t>(lo), a.hi - b.lo};
}

constexpr std::uint32_t kSignedMax = 0x7fffffffu;

/// Decision for `op rA, rB`: +1 the branch is always taken, -1 never,
/// 0 unknown. Signed compares are folded only when both operands are
/// provably non-negative, where signed and unsigned order coincide.
int decide_branch(Op op, const Interval& a, const Interval& b) noexcept {
  const bool eq = a.singleton() && b.singleton() && a.lo == b.lo;
  const bool ne = a.hi < b.lo || b.hi < a.lo;  // disjoint
  const bool lt = a.hi < b.lo;                 // every a < every b
  const bool ge = a.lo >= b.hi;                // every a >= every b
  const bool nonneg = a.hi <= kSignedMax && b.hi <= kSignedMax;
  switch (op) {
    case Op::kBeq:
      return eq ? +1 : ne ? -1 : 0;
    case Op::kBne:
      return ne ? +1 : eq ? -1 : 0;
    case Op::kBltu:
      return lt ? +1 : ge ? -1 : 0;
    case Op::kBgeu:
      return ge ? +1 : lt ? -1 : 0;
    case Op::kBlt:
      return nonneg ? (lt ? +1 : ge ? -1 : 0) : 0;
    case Op::kBge:
      return nonneg ? (ge ? +1 : lt ? -1 : 0) : 0;
    default:
      return 0;
  }
}

std::string hexaddr(Addr a) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", a);
  return buf;
}

std::uint32_t load_word(const std::vector<std::byte>& img, std::size_t off) {
  std::uint32_t w = 0;
  if (off + 4 <= img.size()) std::memcpy(&w, img.data() + off, 4);
  return w;
}

using State = std::array<Interval, kNumGpr>;

constexpr int kWidenAfter = 3;  // joins per block before widening to TOP

}  // namespace

const ValueRange::SymExtent* ValueRange::extent_of(Addr a) const noexcept {
  auto it = std::upper_bound(
      extents_.begin(), extents_.end(), a,
      [](Addr v, const SymExtent& e) { return v < e.lo; });
  if (it == extents_.begin()) return nullptr;
  --it;
  return (a >= it->lo && a < it->hi) ? &*it : nullptr;
}

Interval ValueRange::initial_range(const SymExtent& e) const {
  auto it = sym_initial_.find(e.key);
  return it == sym_initial_.end() ? kTopI : it->second;
}

ValueRange::ValueRange(const Cfg& cfg,
                       const std::map<Addr, SymbolAccess>& access,
                       const MemLiveness& mem)
    : cfg_(&cfg) {
  const Program& prog = cfg.program();

  // Symbol extents, copied now (queries outlive the Program — see the
  // matching note in timewindow.hpp).
  for (const Symbol& s : prog.symbols()) {
    if (s.segment != Segment::kData && s.segment != Segment::kBss) continue;
    SymExtent e;
    e.lo = s.address;
    e.hi = s.address + (s.size ? s.size : 1);
    e.key = s.address;
    auto it = access.find(s.address);
    // A `.word symbol` data initializer publishes a pointer the access scan
    // never sees; stores through it could hit the symbol behind this
    // analysis's back.
    e.tracked = it != access.end() && !it->second.escaped &&
                !mem.pointer_published(s.address);
    extents_.push_back(e);
  }
  std::sort(extents_.begin(), extents_.end(),
            [](const SymExtent& a, const SymExtent& b) { return a.lo < b.lo; });

  // Initial word ranges: BSS images as zero; data symbols join their
  // initializer words (word-aligned extents only — anything odd is TOP).
  const auto& data = prog.image(Segment::kData);
  const Addr data_base = prog.segment_base(Segment::kData);
  for (SymExtent& e : extents_) {
    if (!e.tracked) continue;
    const Symbol* s = prog.symbol_covering(e.lo);
    Interval init = kTopI;
    if (s != nullptr && s->segment == Segment::kBss) {
      init = single(0);
    } else if (s != nullptr && e.lo % 4 == 0 && (e.hi - e.lo) % 4 == 0 &&
               e.hi > e.lo) {
      init = single(load_word(data, e.lo - data_base));
      for (Addr a = e.lo + 4; a < e.hi; a += 4)
        init = join(init, single(load_word(data, a - data_base)));
    }
    sym_initial_.emplace(e.key, init);
    sym_ranges_.emplace(e.key, init);
  }

  // Iterate register pass and symbol ranges to a joint fixpoint: ranges
  // only grow, widening (round >= 2 -> TOP) bounds the rounds, and the
  // loop exits exactly when initial ∪ stores(ranges) ⊆ ranges — the
  // post-fixpoint the final recording pass below relies on.
  for (int round = 0; round < 8; ++round) {
    std::map<Addr, Interval> stores;
    run_pass(&stores, /*record=*/false);
    bool changed = false;
    for (auto& [key, range] : sym_ranges_) {
      Interval next = sym_initial_.at(key);
      if (auto it = stores.find(key); it != stores.end())
        next = join(next, it->second);
      next = join(range, next);
      if (same(next, range)) continue;
      if (round >= 2) next = kTopI;
      range = next;
      changed = true;
    }
    if (!changed) break;
    if (round == 7)  // safety net: force the trivial fixpoint
      for (auto& [key, range] : sym_ranges_) range = kTopI;
  }
  run_pass(nullptr, /*record=*/true);
}

bool ValueRange::run_pass(std::map<Addr, Interval>* stores, bool record) {
  const Cfg& cfg = *cfg_;
  const auto& blocks = cfg.blocks();
  refined_.assign(blocks.size(), false);
  if (record) issues_.clear();
  if (blocks.empty()) return true;

  struct BState {
    State regs;
    bool set = false;
    int joins = 0;
  };
  std::vector<BState> in(blocks.size());
  Dataflow df(in, [](BState& t, const State& s) {
    if (!t.set) {
      t.regs = s;
      t.set = true;
      return true;
    }
    State j;
    bool grew = false;
    for (unsigned r = 0; r < kNumGpr; ++r) {
      j[r] = join(t.regs[r], s[r]);
      grew |= !same(j[r], t.regs[r]);
    }
    if (!grew) return false;
    if (++t.joins > kWidenAfter) {
      for (unsigned r = 0; r < kNumGpr; ++r)
        if (!same(j[r], t.regs[r])) j[r] = kTopI;
    }
    t.regs = j;
    return true;
  });
  auto propagate = [&](std::uint32_t id, const State& s) {
    if (id != Cfg::kNoBlock) df.flow(id, s);
  };

  /// Joins `value` into the pending range of every tracked symbol the
  /// store's address interval can touch. `addr` TOP never hits a tracked
  /// symbol (addresses reach registers only through scanned `la` pairs;
  /// an address this analysis lost track of belongs to an escaped —
  /// hence untracked — symbol).
  auto collect_store = [&](const Interval& addr, unsigned size,
                           const Interval& value) {
    if (stores == nullptr || addr.top()) return;
    const std::uint64_t last =
        static_cast<std::uint64_t>(addr.hi) + size - 1;
    for (const SymExtent& e : extents_) {
      if (!e.tracked) continue;
      if (last < e.lo || addr.lo >= e.hi) continue;  // disjoint
      auto [it, fresh] = stores->emplace(e.key, value);
      if (!fresh) it->second = join(it->second, value);
    }
  };
  bool emitting = false;  // true only during the deterministic final walk
  auto oob_check = [&](Addr pc, const Interval& addr, unsigned size) {
    if (!record || !emitting || addr.top()) return;
    const SymExtent* e = extent_of(addr.lo);
    if (e == nullptr) return;
    const std::uint64_t last =
        static_cast<std::uint64_t>(addr.hi) + size - 1;
    if (last < e->hi) return;
    ValueRangeIssue issue;
    issue.code = "range-store-oob";
    issue.addr = pc;
    issue.message = "store address range [" + hexaddr(addr.lo) + ", " +
                    hexaddr(addr.hi) + "]+" + std::to_string(size) +
                    " runs past the symbol at " + hexaddr(e->lo);
    issues_.push_back(std::move(issue));
  };

  /// Walk one block from state `s`; returns false if an aborting syscall
  /// stops execution before the terminator (no out-edges on this path).
  auto walk = [&](std::uint32_t id, State& s) -> bool {
    const Block& b = blocks[id];
    for (Addr pc = b.begin; pc < b.end; pc += 4) {
      const std::uint32_t word = cfg.word_at(pc);
      const Instr in_ = decode(word);
      switch (in_.op) {
        case Op::kMov:
          s[in_.a] = s[in_.b];
          break;
        case Op::kLdi:
          s[in_.a] = single(static_cast<std::uint32_t>(in_.simm()));
          break;
        case Op::kLui:
          s[in_.a] = single(static_cast<std::uint32_t>(in_.imm) << 16);
          break;
        case Op::kAdd:
          s[in_.a] = iv_add(s[in_.b], s[in_.c()]);
          break;
        case Op::kSub:
          s[in_.a] = iv_sub(s[in_.b], s[in_.c()]);
          break;
        case Op::kAddi:
          s[in_.a] = iv_addc(s[in_.b], in_.simm());
          break;
        case Op::kAnd:
          s[in_.a] = {0, std::min(s[in_.b].hi, s[in_.c()].hi)};
          break;
        case Op::kAndi:
          s[in_.a] = {0, in_.imm};
          break;
        case Op::kOri:
          s[in_.a] = s[in_.b].singleton() ? single(s[in_.b].lo | in_.imm)
                                          : kTopI;
          break;
        case Op::kXori:
          s[in_.a] = s[in_.b].singleton() ? single(s[in_.b].lo ^ in_.imm)
                                          : kTopI;
          break;
        case Op::kShli: {
          const unsigned sh = in_.imm & 31;
          const std::uint64_t hi = static_cast<std::uint64_t>(s[in_.b].hi)
                                   << sh;
          s[in_.a] = (in_.imm < 32 && hi <= 0xffffffffull)
                         ? Interval{s[in_.b].lo << sh,
                                    static_cast<std::uint32_t>(hi)}
                         : kTopI;
          break;
        }
        case Op::kShri: {
          const unsigned sh = in_.imm & 31;
          s[in_.a] = in_.imm < 32
                         ? Interval{s[in_.b].lo >> sh, s[in_.b].hi >> sh}
                         : kTopI;
          break;
        }
        case Op::kSrai: {
          const unsigned sh = in_.imm & 31;
          s[in_.a] = (in_.imm < 32 && s[in_.b].hi <= kSignedMax)
                         ? Interval{s[in_.b].lo >> sh, s[in_.b].hi >> sh}
                         : kTopI;
          break;
        }
        case Op::kSlt:
        case Op::kSltu:
          s[in_.a] = {0, 1};
          break;
        case Op::kLdb:
          s[in_.a] = {0, 255};
          break;
        case Op::kLdw: {
          const Interval addr = iv_addc(s[in_.b], in_.simm());
          Interval loaded = kTopI;
          if (!addr.top()) {
            const SymExtent* e = extent_of(addr.lo);
            if (e != nullptr && e->tracked &&
                static_cast<std::uint64_t>(addr.hi) + 3 < e->hi)
              loaded = sym_ranges_.at(e->key);
          }
          s[in_.a] = loaded;
          break;
        }
        case Op::kStw: {
          const Interval addr = iv_addc(s[in_.b], in_.simm());
          collect_store(addr, 4, s[in_.a]);
          oob_check(pc, addr, 4);
          break;
        }
        case Op::kStb: {
          // A byte poke rewrites part of a word: the word range is gone.
          const Interval addr = iv_addc(s[in_.b], in_.simm());
          collect_store(addr, 1, kTopI);
          oob_check(pc, addr, 1);
          break;
        }
        case Op::kFst:
        case Op::kFstnp: {
          const Interval addr = iv_addc(s[in_.b], in_.simm());
          collect_store(addr, 8, kTopI);
          oob_check(pc, addr, 8);
          break;
        }
        case Op::kPush:
          s[kSp] = kTopI;
          break;
        case Op::kPop:
          s[in_.a] = kTopI;
          s[kSp] = kTopI;
          break;
        case Op::kEnter:
        case Op::kLeave:
          s[kSp] = kTopI;
          s[kFp] = kTopI;
          break;
        case Op::kSys:
          if (aborting_sys(in_)) return false;  // rank halts here
          for (unsigned r = 0; r < kNumGpr; ++r) s[r] = kTopI;
          break;
        case Op::kFcmp:
        case Op::kF2i:
          s[in_.a] = kTopI;
          break;
        default: {
          // Control transfers (block terminators, no GPR effect) and any
          // op not modelled above: clobber whatever it defines.
          const RegEffect e = instr_effect(word, DefUseModel::kSound);
          for (unsigned r = 0; r < kNumGpr; ++r)
            if ((e.def & reg_bit(r)) != 0) s[r] = kTopI;
          break;
        }
      }
    }
    return true;
  };

  // Same seeds as Cfg::compute_reachability: the entry block plus every
  // address-taken block, each with an unconstrained register file.
  State top_state;
  top_state.fill(kTopI);
  propagate(cfg.entry_block(), top_state);
  for (Addr a : cfg.materialized()) propagate(cfg.block_index_of(a), top_state);

  auto out_edges = [&](std::uint32_t id, const State& s) {
    const Block& b = blocks[id];
    const Addr term_pc = b.end - 4;
    const Instr term = decode(cfg.word_at(term_pc));
    switch (b.term) {
      case FlowKind::kBranch: {
        const std::uint32_t taken = cfg.block_index_of(rel_target(term_pc, term));
        const std::uint32_t fall =
            b.falls_off_end ? Cfg::kNoBlock : cfg.block_index_of(term_pc + 4);
        const int d = decide_branch(term.op, s[term.a], s[term.b]);
        if (d >= 0) propagate(taken, s);
        if (d <= 0) propagate(fall, s);
        break;
      }
      case FlowKind::kCall:
        if (b.call_target >= 0)
          propagate(static_cast<std::uint32_t>(b.call_target), top_state);
        for (std::uint32_t t : b.succ) propagate(t, top_state);
        break;
      case FlowKind::kIndirectCall:
        // Targets are the address-taken seeds; the continuation survives
        // with a clobbered register file.
        for (std::uint32_t t : b.succ) propagate(t, top_state);
        break;
      case FlowKind::kIndirectJump:
      case FlowKind::kRet:
      case FlowKind::kIllegal:
        break;  // targets are seeds / return sites of other walks
      default:
        for (std::uint32_t t : b.succ) propagate(t, s);
        break;
    }
  };

  df.solve([&](std::uint32_t id, BState entry) {
    if (walk(id, entry.regs)) out_edges(id, entry.regs);
  });

  // Deterministic recording walk over the converged states: visited set,
  // store joins, branch decisions, lint issues.
  emitting = true;
  for (std::uint32_t id = 0; id < blocks.size(); ++id) {
    if (!in[id].set) continue;
    refined_[id] = true;
    State s = in[id].regs;
    const bool flows = walk(id, s);
    if (!record || !flows) continue;
    const Block& b = blocks[id];
    if (b.term != FlowKind::kBranch) continue;
    const Addr term_pc = b.end - 4;
    const Instr term = decode(cfg.word_at(term_pc));
    const int d = decide_branch(term.op, s[term.a], s[term.b]);
    if (d == 0) continue;
    ValueRangeIssue issue;
    issue.code = "range-dead-branch";
    issue.addr = term_pc;
    issue.message = std::string(mnemonic(term.op)) +
                    (d > 0 ? " is always taken" : " is never taken") +
                    "; the other arm is statically dead";
    issues_.push_back(std::move(issue));
  }
  return true;
}

}  // namespace fsim::svm::analysis
