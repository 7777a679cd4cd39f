#include "svm/analysis/stackwindow.hpp"

#include <algorithm>
#include <set>

#include "svm/analysis/dataflow.hpp"
#include "svm/analysis/defuse.hpp"

namespace fsim::svm::analysis {

namespace {

bool fp_mem_base(const Instr& in) noexcept {
  switch (in.op) {
    case Op::kLdw:
    case Op::kLdb:
    case Op::kStw:
    case Op::kStb:
    case Op::kFld:
    case Op::kFst:
    case Op::kFstnp:
      return in.b == kFp;
    default:
      return false;
  }
}

int access_bytes(const Instr& in) noexcept {
  switch (in.op) {
    case Op::kLdw:
    case Op::kStw:
      return 4;
    case Op::kLdb:
    case Op::kStb:
      return 1;
    default:
      return 8;  // kFld / kFst / kFstnp
  }
}

bool is_read(const Instr& in) noexcept {
  return in.op == Op::kLdw || in.op == Op::kLdb || in.op == Op::kFld;
}

}  // namespace

StackWindow::StackWindow(const Cfg& cfg, const MemLiveness& mem)
    : cfg_(&cfg) {
  enabled_ = !cfg.blocks().empty();
  if (enabled_) scan(cfg, mem);
  if (!enabled_) {
    eligible_.clear();
    for (FrameWindowInfo& f : frames_) f.eligible = false;
  }
}

void StackWindow::scan(const Cfg& cfg, const MemLiveness& mem) {
  const auto& blocks = cfg.blocks();
  const std::uint16_t sp_bit = reg_bit(kSp);
  const std::uint16_t fp_bit = reg_bit(kFp);

  // --- Global instruction gates over all reachable code ---
  for (std::uint32_t id = 0; id < blocks.size(); ++id) {
    if (!cfg.reachable_block(id)) continue;
    const Block& b = blocks[id];
    // A reachable indirect jump leaves intraprocedural flow unboundable;
    // reachable code may run off a segment end.
    if (b.term == FlowKind::kIndirectJump || b.falls_off_end)
      enabled_ = false;
    const bool orphan = cfg.functions_of(id).empty();
    for (Addr pc = b.begin; pc < b.end; pc += 4) {
      const std::uint32_t word = cfg.word_at(pc);
      const Instr in = decode(word);
      switch (in.op) {
        case Op::kPush:
        case Op::kPop:
          // push fp is a per-function escape (MemLiveness); push/pop of sp
          // itself would forge or clobber the walker's chain.
          if (in.a == kSp) enabled_ = false;
          break;
        case Op::kCall:
        case Op::kCallr:
        case Op::kRet:
        case Op::kEnter:
        case Op::kLeave:
          break;  // the frame discipline itself
        default: {
          const RegEffect e = instr_effect(word, DefUseModel::kSound);
          // sp leaves the push/call/enter bookkeeping, or fp is touched
          // outside any detected function.
          if (((e.use | e.def) & sp_bit) != 0 ||
              (orphan && ((e.use | e.def) & fp_bit) != 0))
            enabled_ = false;
          break;
        }
      }
    }
  }

  // --- Per-function gates, eligibility and windows ---
  std::map<Addr, const StackFrameAccess*> fa_of;
  for (const StackFrameAccess& fa : mem.frames()) fa_of[fa.entry] = &fa;

  for (std::uint32_t fi = 0; fi < cfg.functions().size(); ++fi) {
    const Cfg::Function& fn = cfg.functions()[fi];
    if (fn.entry == Cfg::kNoBlock) continue;
    const Addr entry_addr = cfg.block(fn.entry).begin;
    auto fa_it = fa_of.find(entry_addr);
    const StackFrameAccess* fa =
        fa_it == fa_of.end() ? nullptr : fa_it->second;
    const bool fp_involved =
        fa != nullptr && (fa->escaped || !fa->read_offsets.empty() ||
                          !fa->write_offsets.empty());

    // E1: a single `enter imm` as the very first instruction.
    int enters = 0;
    for (std::uint32_t bid : fn.blocks) {
      const Block& b = cfg.block(bid);
      for (Addr pc = b.begin; pc < b.end; pc += 4)
        if (decode(cfg.word_at(pc)).op == Op::kEnter) ++enters;
    }
    const Instr first = decode(cfg.word_at(entry_addr));
    const bool framed = enters == 1 && first.op == Op::kEnter;
    const std::uint32_t frame_size = framed ? first.imm : 0;
    if (fp_involved && !framed) {
      enabled_ = false;  // fp used without a single well-defined enter
      return;
    }

    // E3: enter-depth per block (0 before the prologue / after the
    // epilogue, 1 inside the frame window, -1 unreached), indexed like
    // fn.blocks. Joins must agree; once they do not, no depth is used.
    std::vector<int> depth_in(fn.blocks.size(), -1);
    bool depth_ok = true;
    if (framed) {
      Dataflow df(depth_in, [&](int& cur, int d) {
        if (cur < 0) {
          cur = d;
          return true;
        }
        if (cur != d) depth_ok = false;
        return false;
      });
      df.flow(fn.local_index(fn.entry), 0);
      df.solve([&](std::uint32_t li, int d) {
        if (!depth_ok) return;
        const Block& b = cfg.block(fn.blocks[li]);
        for (Addr pc = b.begin; pc < b.end; pc += 4) {
          const Op op = decode(cfg.word_at(pc)).op;
          if (op == Op::kEnter) ++d;
          if (op == Op::kLeave) --d;
        }
        if (d < 0 || d > 1) {
          depth_ok = false;
          return;
        }
        for (std::uint32_t s : b.succ)
          if (const std::uint32_t ls = fn.local_index(s); ls != Cfg::kNoBlock)
            df.flow(ls, d);
      });
    }

    // Gate every fp access: inside the depth-1 window, negative offset,
    // within the function's own frame. Anything else is an access to some
    // other activation's memory and poisons attribution globally.
    for (std::uint32_t li = 0; li < fn.blocks.size(); ++li) {
      const Block& b = cfg.block(fn.blocks[li]);
      int d = depth_in[li];
      for (Addr pc = b.begin; pc < b.end; pc += 4) {
        const std::uint32_t word = cfg.word_at(pc);
        const Instr in = decode(word);
        bool touches_fp = fp_mem_base(in);
        if (!touches_fp && in.op != Op::kEnter && in.op != Op::kLeave) {
          const RegEffect e = instr_effect(word, DefUseModel::kSound);
          touches_fp = ((e.use | e.def) & fp_bit) != 0;
        }
        if (touches_fp) {
          if (!framed || !depth_ok || d != 1) {
            enabled_ = false;  // fp touched outside its own frame window
            return;
          }
          if (fp_mem_base(in)) {
            const std::int32_t off = in.simm();
            const int n = access_bytes(in);
            if (off >= 0 || off + n > 0 ||
                off < -static_cast<std::int32_t>(frame_size)) {
              enabled_ = false;  // access outside the local frame span
              return;
            }
          }
        }
        if (in.op == Op::kEnter) ++d;
        if (in.op == Op::kLeave) --d;
      }
    }

    // G4: no frame byte may be read before this activation writes it
    // (must-write dataflow, byte granular). Pruned flips park in released
    // stack memory; any later activation re-mapping the address must
    // overwrite before looking, in *every* function.
    if (framed && frame_size > 0 && fa != nullptr &&
        !fa->read_offsets.empty()) {
      std::set<std::int32_t> universe = fa->read_offsets;
      universe.insert(fa->write_offsets.begin(), fa->write_offsets.end());
      std::vector<std::set<std::int32_t>> must_in(fn.blocks.size(), universe);
      auto written_in = [&](std::uint32_t bid) {
        std::set<std::int32_t> w;
        const Block& b = cfg.block(bid);
        for (Addr pc = b.begin; pc < b.end; pc += 4) {
          const Instr in = decode(cfg.word_at(pc));
          if (fp_mem_base(in) && !is_read(in))
            for (int i = 0; i < access_bytes(in); ++i)
              w.insert(in.simm() + i);
        }
        return w;
      };
      Dataflow df(must_in, [](std::set<std::int32_t>& in_s,
                              const std::set<std::int32_t>& out) {
        std::set<std::int32_t> met;
        std::set_intersection(in_s.begin(), in_s.end(), out.begin(), out.end(),
                              std::inserter(met, met.begin()));
        if (met == in_s) return false;
        in_s = std::move(met);
        return true;
      });
      df.flow(fn.local_index(fn.entry), std::set<std::int32_t>{});
      df.solve([&](std::uint32_t li, std::set<std::int32_t> out) {
        out.merge(written_in(fn.blocks[li]));
        for (std::uint32_t s : cfg.block(fn.blocks[li]).succ)
          if (const std::uint32_t ls = fn.local_index(s); ls != Cfg::kNoBlock)
            df.flow(ls, out);
      });
      for (std::uint32_t li = 0; li < fn.blocks.size(); ++li) {
        std::set<std::int32_t> have = must_in[li];
        const Block& b = cfg.block(fn.blocks[li]);
        for (Addr pc = b.begin; pc < b.end; pc += 4) {
          const Instr in = decode(cfg.word_at(pc));
          if (!fp_mem_base(in)) continue;
          for (int i = 0; i < access_bytes(in); ++i) {
            const std::int32_t o = in.simm() + i;
            if (is_read(in) && have.count(o) == 0) {
              enabled_ = false;  // read before the activation writes it
              return;
            }
            if (!is_read(in)) have.insert(o);
          }
        }
      }
    }

    // Per-function eligibility for actual pruning.
    bool eligible = framed && frame_size > 0 && depth_ok && fa != nullptr &&
                    !fa->escaped;
    if (eligible)
      for (std::uint32_t bid : fn.blocks)
        if (cfg.functions_of(bid).size() != 1) eligible = false;

    FrameWindowInfo info;
    info.entry = entry_addr;
    if (fn.symbol != nullptr) info.symbol = fn.symbol->name;
    info.frame_size = frame_size;
    info.eligible = eligible;
    if (frame_size > 0 && fa != nullptr) {
      int read_local = 0;
      for (std::int32_t o : fa->read_offsets)
        if (o < 0 && o >= -static_cast<std::int32_t>(frame_size))
          ++read_local;
      info.windowed_bytes = read_local;
      info.never_read_bytes = static_cast<int>(frame_size) - read_local;
    }
    frames_.push_back(info);
    if (!eligible) continue;

    // Build the per-byte activation windows: intraprocedural backward
    // reachability over Block::succ (a call steps to its return site —
    // while the callee runs, this frame sleeps untouched by the gates).
    FnWindows fw;
    fw.frame_size = frame_size;
    fw.entry_depth = std::move(depth_in);
    std::map<std::uint32_t, std::vector<std::uint32_t>> rev;
    for (std::uint32_t p : fn.blocks)
      for (std::uint32_t s : cfg.block(p).succ)
        if (fn.local_index(s) != Cfg::kNoBlock) rev[s].push_back(p);
    const std::vector<std::uint32_t> no_preds;
    auto preds = [&](std::uint32_t s) -> const std::vector<std::uint32_t>& {
      auto it = rev.find(s);
      return it == rev.end() ? no_preds : it->second;
    };
    for (const auto& [off, pcs] : fa->read_pcs) {
      if (off >= 0 || off < -static_cast<std::int32_t>(frame_size)) continue;
      fw.offsets.emplace(off, backward_window(cfg, pcs, {}, preds));
    }
    eligible_.emplace(fi, std::move(fw));
  }

  std::sort(frames_.begin(), frames_.end(),
            [](const FrameWindowInfo& a, const FrameWindowInfo& b) {
              return a.entry < b.entry;
            });
}

bool StackWindow::slot_dead(Addr owner_pc, std::int32_t off) const noexcept {
  if (!enabled_) return false;
  const std::uint32_t bid = cfg_->block_index_of(owner_pc);
  if (bid == Cfg::kNoBlock) return false;
  // An eligible function shares none of its blocks, so it is the only
  // function owning `bid`.
  const std::vector<std::uint32_t>& owners = cfg_->functions_of(bid);
  if (owners.size() != 1) return false;
  auto eit = eligible_.find(owners[0]);
  if (eit == eligible_.end()) return false;
  const FnWindows& fw = eit->second;
  if (off >= 0 || off < -static_cast<std::int32_t>(fw.frame_size))
    return false;  // saved fp / return address / caller's push area
  int depth = fw.entry_depth[cfg_->functions()[owners[0]].local_index(bid)];
  if (depth < 0) return false;  // never reached from the entry
  const Block& b = cfg_->block(bid);
  for (Addr pc = b.begin; pc < owner_pc && pc < b.end; pc += 4) {
    const Op op = decode(cfg_->word_at(pc)).op;
    if (op == Op::kEnter) ++depth;
    if (op == Op::kLeave) --depth;
  }
  if (depth != 1) return false;  // fp does not designate this frame yet
  auto oit = fw.offsets.find(off);
  return oit == fw.offsets.end() ||  // byte never read anywhere
         oit->second.dead_at(*cfg_, owner_pc);
}

}  // namespace fsim::svm::analysis
