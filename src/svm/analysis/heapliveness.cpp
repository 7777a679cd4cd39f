#include "svm/analysis/heapliveness.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <set>

#include "svm/analysis/dataflow.hpp"
#include "svm/analysis/defuse.hpp"
#include "svm/syscall.hpp"

namespace fsim::svm::analysis {

namespace {

/// Abstract register value. Anything the model cannot follow is kNone;
/// the escape-on-loss invariant guarantees a kNone value never equals a
/// non-escaped site's address.
struct AbsVal {
  enum class Kind : std::uint8_t { kNone, kConst, kParam, kSite };
  Kind kind = Kind::kNone;
  Addr v = 0;  // constant value / parameter register / site pc
  bool tracked() const noexcept {
    return kind == Kind::kParam || kind == Kind::kSite;
  }
  friend bool operator==(const AbsVal&, const AbsVal&) = default;
};

constexpr AbsVal kNone{};
AbsVal make_const(Addr v) { return {AbsVal::Kind::kConst, v}; }
AbsVal make_param(unsigned r) { return {AbsVal::Kind::kParam, r}; }
AbsVal make_site(Addr pc) { return {AbsVal::Kind::kSite, pc}; }

/// What a function may do to the chunk a parameter register points at.
struct ParamEffect {
  bool read = false, written = false, escaped = false;
  std::set<Addr> read_pcs;  // transitive load sites (callee pcs included)
  friend bool operator==(const ParamEffect&, const ParamEffect&) = default;
};

struct FnSummary {
  std::array<ParamEffect, kNumGpr> params{};
  std::array<AbsVal, kNumGpr> out{};  // register state at ret, symbolically
  bool has_ret = false;
  friend bool operator==(const FnSummary&, const FnSummary&) = default;
};

using State = std::array<AbsVal, kNumGpr>;

FnSummary identity_summary() {
  FnSummary s;
  for (unsigned r = 0; r < kNumGpr; ++r) s.out[r] = make_param(r);
  return s;
}

/// The whole-program scan, shared by the summary fixpoint (record = false:
/// only parameter effects matter) and the final event pass (record = true:
/// converged summaries in hand, site events are attributed globally).
/// Recording extra events under pre-fixpoint states would be sound —
/// events only ever make a site *more* live — but the two-phase split
/// keeps the final windows exact.
class Scan {
 public:
  Scan(const Cfg& cfg, const std::map<Addr, SymbolAccess>& access,
       const MemLiveness& mem, const Liveness& live,
       std::map<Addr, HeapSite>& sites)
      : cfg_(cfg),
        access_(access),
        mem_(mem),
        live_(live),
        sites_(sites),
        summaries_(cfg.functions().size(), identity_summary()) {}

  /// Iterate all function summaries to a whole-program fixpoint. False if
  /// the round budget runs out first.
  bool converge() {
    return summary_rounds(summaries_, 16,
                          [this](std::uint32_t fi) { return analyze(fi); });
  }

  void record_events() {
    record_ = true;
    for (std::uint32_t fi = 0; fi < summaries_.size(); ++fi) analyze(fi);
  }

 private:
  /// Entry state of one block of the function under analysis, next to the
  /// registers live on entry to the block (what the join may not drop).
  struct BlockIn {
    std::uint16_t live = 0;
    std::optional<State> regs;
  };

  /// One intra-function abstract interpretation with the current callee
  /// summaries; returns this function's freshly derived summary.
  FnSummary analyze(std::uint32_t fi) {
    sum_ = identity_summary();
    sum_.has_ret = false;
    const Cfg::Function& fn = cfg_.functions()[fi];
    if (fn.entry == Cfg::kNoBlock) return sum_;
    std::vector<BlockIn> in(fn.blocks.size());
    for (std::uint32_t li = 0; li < fn.blocks.size(); ++li)
      in[li].live = live_.live_in(cfg_.block(fn.blocks[li]).begin);
    Dataflow df(in, [this](BlockIn& cur, const State& st) {
      return join_into(cur, st);
    });
    State entry;
    for (unsigned r = 0; r < kNumGpr; ++r)
      entry[r] = (r == kSp || r == kFp) ? kNone : make_param(r);
    df.flow(fn.local_index(fn.entry), entry);
    df.solve([&](std::uint32_t li, BlockIn b) {
      State& st = *b.regs;
      if (!transfer_block(fn.blocks[li], st)) return;
      for (std::uint32_t s : cfg_.block(fn.blocks[li]).succ) {
        const std::uint32_t ls = fn.local_index(s);
        if (ls != Cfg::kNoBlock) df.flow(ls, st);
      }
    });
    return sum_;
  }

  /// Run one block's instructions over `st`. Returns false when nothing
  /// flows to the intraprocedural successors (ret, trap, aborting sys).
  bool transfer_block(std::uint32_t bid, State& st) {
    const Block& b = cfg_.block(bid);
    for (Addr pc = b.begin; pc < b.end; pc += 4) {
      const Instr in = decode(cfg_.word_at(pc));
      switch (in.op) {
        case Op::kMov:
          st[in.a] = st[in.b];
          break;
        case Op::kLdi:
          st[in.a] = make_const(static_cast<Addr>(in.simm()));
          break;
        case Op::kLui:
          st[in.a] = make_const(static_cast<Addr>(in.imm) << 16);
          break;
        case Op::kOri:
          if (st[in.b].kind == AbsVal::Kind::kConst)
            st[in.a] = make_const(st[in.b].v | in.imm);
          else {
            escape(st[in.b]);
            st[in.a] = kNone;
          }
          break;
        case Op::kAddi:
          if (st[in.b].kind == AbsVal::Kind::kConst)
            st[in.a] = make_const(st[in.b].v + static_cast<Addr>(in.simm()));
          else if (st[in.b].tracked())
            st[in.a] = st[in.b];  // pointer arithmetic stays in the chunk
          else
            st[in.a] = kNone;
          break;
        case Op::kAdd:
        case Op::kSub: {
          const AbsVal x = st[in.b], y = st[in.c()];
          if (x.kind == AbsVal::Kind::kConst && y.kind == AbsVal::Kind::kConst)
            st[in.a] = make_const(in.op == Op::kAdd ? x.v + y.v : x.v - y.v);
          else if (x.tracked() && !y.tracked())
            st[in.a] = x;  // pointer +- integer offset
          else if (in.op == Op::kAdd && y.tracked() && !x.tracked())
            st[in.a] = y;  // integer + pointer
          else {
            escape(x);
            escape(y);
            st[in.a] = kNone;
          }
          break;
        }
        case Op::kSlt:
        case Op::kSltu:
          // An ordering bit cannot reconstruct an address: no escape.
          st[in.a] = kNone;
          break;
        case Op::kMul:
        case Op::kDivs:
        case Op::kRems:
        case Op::kAnd:
        case Op::kOr:
        case Op::kXor:
        case Op::kShl:
        case Op::kShr:
        case Op::kSra:
          escape(st[in.b]);
          escape(st[in.c()]);
          st[in.a] = kNone;
          break;
        case Op::kMuli:
        case Op::kAndi:
        case Op::kXori:
        case Op::kShli:
        case Op::kShri:
        case Op::kSrai:
          escape(st[in.b]);
          st[in.a] = kNone;
          break;
        case Op::kLdw:
        case Op::kLdb:
          note_read(st[in.b], pc);
          st[in.a] = kNone;
          break;
        case Op::kFld:
          note_read(st[in.b], pc);
          break;
        case Op::kStw:
        case Op::kStb:
          note_write(st[in.b]);
          store_value(st[in.a], st[in.b], in.simm());
          break;
        case Op::kFst:
        case Op::kFstnp:
          note_write(st[in.b]);
          break;
        case Op::kPush:
          // The value lands in stack memory the model does not track and
          // can be reloaded from there.
          escape(st[in.a]);
          break;
        case Op::kPop:
          st[in.a] = kNone;
          break;
        case Op::kI2f:
          // A pointer on the FP stack can round-trip through f2i.
          escape(st[in.a]);
          break;
        case Op::kFcmp:
        case Op::kF2i:
          st[in.a] = kNone;
          break;
        case Op::kCall:
          if (const std::uint32_t callee = cfg_.callee_of(bid);
              callee != Cfg::kNoBlock)
            apply_call(st, summaries_[callee]);
          else
            escape_all(st);  // unknown callee: could retain or read anything
          break;
        case Op::kCallr:
          escape_all(st);  // target set unknown; summaries cannot compose
          break;
        case Op::kJmpr:
          // Indirect edges carry no propagated state; escaping everything
          // first keeps the block-entry states of the taken targets sound.
          escape_all(st);
          break;
        case Op::kEnter:
        case Op::kLeave:
          // Frame bookkeeping reads/writes stack memory through sp/fp and
          // redefines both; a tracked pointer parked there is lost.
          escape(st[kSp]);
          escape(st[kFp]);
          st[kSp] = kNone;
          st[kFp] = kNone;
          break;
        case Op::kRet:
          merge_ret(st);
          break;
        case Op::kSys:
          transfer_sys(st, in.imm, pc);
          break;
        default:
          // nop, enter/leave (sp/fp bookkeeping), branches (ordering bits),
          // jmp, FP-stack arithmetic: no GPR becomes a new pointer and no
          // tracked value is lost.
          break;
      }
    }
    if (b.falls_off_end) escape_all(st);
    switch (b.term) {
      case FlowKind::kRet:
      case FlowKind::kIllegal:
        return false;
      default:
        return !aborting_sys(decode(cfg_.word_at(b.end - 4)));
    }
  }

  void transfer_sys(State& st, std::uint16_t num, Addr pc) {
    if (num == static_cast<std::uint16_t>(Sys::kMalloc)) {
      // r1 (the size) is numeric; the result is this site's pointer.
      if (record_) ensure_site(pc);
      st[1] = make_site(pc);
    } else if (num == static_cast<std::uint16_t>(Sys::kFree)) {
      // Frees the chunk without reading the payload; nothing retained.
    } else if (num == static_cast<std::uint16_t>(Sys::kRealloc)) {
      // The host copies the payload (a read) into a clone this pass does
      // not key (heap.cpp allocates it site-less): escape covers both.
      escape(st[1]);
      st[1] = kNone;
    } else {
      // Generic syscall: every pointer argument may be dereferenced or
      // retained by the host (I/O buffers, MPI payloads, assert messages).
      const int argc = sys_arg_count(num);
      for (int r = 1; r <= argc && r < static_cast<int>(kNumGpr); ++r)
        escape(st[r]);
      if (sys_writes_result(num)) st[1] = kNone;
    }
  }

  void apply_call(State& st, const FnSummary& callee) {
    // The callee models its own sp/fp as untracked (analyze()'s entry
    // state), so its summary records no effects for them — a tracked
    // pointer parked there must escape here instead.
    escape(st[kSp]);
    escape(st[kFp]);
    st[kSp] = kNone;
    st[kFp] = kNone;
    const State pre = st;
    for (unsigned r = 0; r < kNumGpr; ++r) {
      const AbsVal v = pre[r];
      if (!v.tracked()) continue;
      const ParamEffect& pe = callee.params[r];
      if (pe.escaped) escape(v);
      if (pe.read) note_read_set(v, pe.read_pcs);
      if (pe.written) note_write(v);
    }
    // Post-call registers: the callee's symbolic out-state resolved
    // against the pre-call snapshot (all registers are caller-visible).
    for (unsigned r = 0; r < kNumGpr; ++r) {
      const AbsVal o = callee.out[r];
      st[r] = o.kind == AbsVal::Kind::kParam ? pre[o.v & 0xf] : o;
    }
  }

  void merge_ret(const State& st) {
    if (!sum_.has_ret) {
      sum_.out = st;
      sum_.has_ret = true;
      return;
    }
    for (unsigned r = 0; r < kNumGpr; ++r) {
      AbsVal& o = sum_.out[r];
      if (o == st[r]) continue;
      escape(o);
      escape(st[r]);
      o = kNone;
    }
  }

  /// Join `st` into a block's entry state. Values being dropped are
  /// escaped first (the escape-on-loss invariant) — unless the register is
  /// provably dead at the join point: a dead register is overwritten
  /// before any read on every path, so the stale pointer copy can never be
  /// dereferenced or stored. Returns true if the stored state changed.
  bool join_into(BlockIn& in, const State& st) {
    if (!in.regs) {
      in.regs = st;
      return true;
    }
    bool changed = false;
    for (unsigned r = 0; r < kNumGpr; ++r) {
      AbsVal& cur = (*in.regs)[r];
      if (cur == st[r]) continue;
      const bool dead = (in.live & reg_bit(r)) == 0;
      if (!dead) escape(st[r]);
      if (!(cur == kNone)) {
        if (!dead) escape(cur);
        cur = kNone;
        changed = true;
      }
    }
    return changed;
  }

  void escape_all(State& st) {
    for (unsigned r = 0; r < kNumGpr; ++r) {
      escape(st[r]);
      st[r] = kNone;
    }
  }

  void escape(const AbsVal& v) {
    if (v.kind == AbsVal::Kind::kParam) {
      sum_.params[v.v & 0xf].escaped = true;
    } else if (v.kind == AbsVal::Kind::kSite && record_) {
      ensure_site(v.v).escaped = true;
    }
  }

  void note_read(const AbsVal& v, Addr pc) {
    if (v.kind == AbsVal::Kind::kParam) {
      ParamEffect& pe = sum_.params[v.v & 0xf];
      pe.read = true;
      pe.read_pcs.insert(pc);
    } else if (v.kind == AbsVal::Kind::kSite && record_) {
      HeapSite& s = ensure_site(v.v);
      s.read = true;
      s.read_pcs.push_back(pc);
    }
  }

  void note_read_set(const AbsVal& v, const std::set<Addr>& pcs) {
    if (v.kind == AbsVal::Kind::kParam) {
      ParamEffect& pe = sum_.params[v.v & 0xf];
      pe.read = true;
      pe.read_pcs.insert(pcs.begin(), pcs.end());
    } else if (v.kind == AbsVal::Kind::kSite && record_) {
      HeapSite& s = ensure_site(v.v);
      s.read = true;
      s.read_pcs.insert(s.read_pcs.end(), pcs.begin(), pcs.end());
    }
  }

  void note_write(const AbsVal& v) {
    if (v.kind == AbsVal::Kind::kParam)
      sum_.params[v.v & 0xf].written = true;
    else if (v.kind == AbsVal::Kind::kSite && record_)
      ensure_site(v.v).written = true;
  }

  /// A tracked pointer stored to memory escapes — unless the target is a
  /// constant address inside an entombing symbol: never read, never
  /// escaped, not pointer-published. Nothing can ever load the pointer
  /// back out of such a symbol, so the site stays tracked (the "stash in
  /// a cold global" idiom the cold-heap probes rely on).
  void store_value(const AbsVal& val, const AbsVal& base, std::int32_t off) {
    if (!val.tracked()) return;
    if (base.kind == AbsVal::Kind::kConst) {
      const Addr target = base.v + static_cast<Addr>(off);
      const Symbol* s = cfg_.program().symbol_covering(target);
      if (s != nullptr &&
          (s->segment == Segment::kData || s->segment == Segment::kBss) &&
          !mem_.pointer_published(s->address)) {
        auto it = access_.find(s->address);
        if (it != access_.end() && !it->second.read && !it->second.escaped)
          return;  // entombed
      }
    }
    escape(val);
  }

  HeapSite& ensure_site(Addr pc) {
    auto [it, inserted] = sites_.try_emplace(pc);
    if (inserted) {
      HeapSite& s = it->second;
      s.pc = pc;
      s.user = cfg_.in_user_text(pc);
      if (const Symbol* sym = cfg_.program().symbol_covering(pc))
        s.symbol = sym->name;
    }
    return it->second;
  }

  const Cfg& cfg_;
  const std::map<Addr, SymbolAccess>& access_;
  const MemLiveness& mem_;
  const Liveness& live_;
  std::map<Addr, HeapSite>& sites_;
  std::vector<FnSummary> summaries_;
  bool record_ = false;
  FnSummary sum_;  // the summary analyze() is deriving
};

}  // namespace

HeapLiveness::HeapLiveness(const Cfg& cfg, const ExecGraph& graph,
                           const std::map<Addr, SymbolAccess>& access,
                           const MemLiveness& mem, const Liveness& live)
    : cfg_(&cfg) {
  if (cfg.blocks().empty()) return;

  // Completeness gate: the scan walks functions, so a reachable block
  // outside every detected function would be an unscanned read channel.
  bool complete = true;
  for (std::uint32_t id = 0; id < cfg.blocks().size(); ++id)
    if (cfg.reachable_block(id) && cfg.functions_of(id).empty())
      complete = false;

  Scan scan(cfg, access, mem, live, sites_);
  const bool converged = scan.converge();
  scan.record_events();  // sites stay visible for reports either way
  tracked_ = converged && complete;
  if (!tracked_)
    for (auto& [pc, s] : sites_) s.escaped = true;

  for (auto& [pc, s] : sites_) {
    std::sort(s.read_pcs.begin(), s.read_pcs.end());
    s.read_pcs.erase(std::unique(s.read_pcs.begin(), s.read_pcs.end()),
                     s.read_pcs.end());
  }

  // Forward-read windows for sites that are read somewhere but tracked:
  // the same execution-successor reachability timewindow.cpp runs per
  // symbol, keyed here per allocation site.
  for (auto& [pc, s] : sites_) {
    if (s.escaped || s.read_pcs.empty()) continue;
    windows_.emplace(pc, graph.window(cfg, s.read_pcs));
  }
}

bool HeapLiveness::site_dead(Addr site) const noexcept {
  if (!tracked_ || site == 0) return false;
  auto it = sites_.find(site);
  return it != sites_.end() && !it->second.escaped && !it->second.read;
}

bool HeapLiveness::site_dead_at(Addr site, Addr pc) const noexcept {
  if (!tracked_ || site == 0) return false;
  auto it = sites_.find(site);
  if (it == sites_.end() || it->second.escaped) return false;
  if (!it->second.read) return true;
  auto wit = windows_.find(site);
  return wit != windows_.end() && wit->second.dead_at(*cfg_, pc);
}

}  // namespace fsim::svm::analysis
