#include "svm/analysis/lint.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <sstream>

#include "svm/analysis/analysis.hpp"
#include "svm/analysis/dataflow.hpp"
#include "util/json.hpp"

namespace fsim::svm::analysis {

namespace {

std::string hexaddr(Addr a) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", a);
  return buf;
}

bool suppressed_name(const std::string& name, const LintOptions& opt) {
  for (const std::string& p : opt.suppress) {
    if (name.size() >= p.size() && name.compare(0, p.size(), p) == 0)
      return true;
  }
  return false;
}

std::string symbol_name_at(const Cfg& cfg, Addr a) {
  const Symbol* s = cfg.program().symbol_covering(a);
  return s ? s->name : std::string();
}

// ---------------------------------------------------------------------------
// FP-stack and call-frame balance, per function, with callee summaries
// iterated to an interprocedural fixpoint. Depths are *relative* to the
// function entry, so the per-function checks compose: a relative depth
// above kNumFpr is a definite overflow (the absolute depth is at least the
// relative one), and a relative underflow means the function consumes
// stack slots it did not push — a bug under any caller.
// ---------------------------------------------------------------------------

struct FnSummary {
  int fp_delta = 0;     // net FP-stack change entry -> ret
  bool known = false;   // has a ret been analyzed yet?
  friend bool operator==(const FnSummary&, const FnSummary&) = default;
};

struct DepthState {
  int fp = 0;     // relative FP-stack depth at block entry
  int frame = 0;  // relative enter/leave nesting at block entry
  bool set = false;
};

/// Walks one function against the callee summaries and returns its own;
/// reports what it finds into `diags` when given.
FnSummary check_function_depths(const Cfg& cfg, const Cfg::Function& fn,
                                const std::vector<FnSummary>& summaries,
                                std::vector<Diagnostic>* diags) {
  std::vector<DepthState> in(cfg.blocks().size());
  in[fn.entry] = {0, 0, true};
  std::optional<int> ret_fp;
  auto report = [&](const char* code, Addr addr, const std::string& msg) {
    if (diags == nullptr) return;
    Diagnostic d;
    d.severity = Severity::kError;
    d.code = code;
    d.addr = addr;
    d.symbol = symbol_name_at(cfg, cfg.block(fn.entry).begin);
    d.message = msg;
    diags->push_back(d);
  };

  // fn.blocks is sorted by id = address order; a couple of passes settle
  // loop back-edges (depth along a back-edge either matches, or the join
  // mismatch is reported on the second pass). An error abandons the pass —
  // depths past it are meaningless — but pass 0 must still fall through to
  // pass 1, where the same deterministic walk re-finds it and reports.
  auto run_pass = [&](int pass) {
    for (std::uint32_t id : fn.blocks) {
      if (!in[id].set) continue;
      int fp = in[id].fp;
      int frame = in[id].frame;
      bool aborted = false;
      const Block& b = cfg.block(id);
      for (Addr pc = b.begin; pc < b.end; pc += 4) {
        const std::uint32_t word = cfg.word_at(pc);
        // An aborting syscall never returns: the depth does not flow into
        // the (defensive, dynamically dead) epilogue after it.
        if (aborting_sys(decode(word))) {
          aborted = true;
          break;
        }
        const RegEffect e = instr_effect(word, DefUseModel::kSound);
        if (e.fp_needs > fp) {
          if (pass == 1)
            report("fp-underflow", pc,
                   "FP-stack depth " + std::to_string(fp) + " but " +
                       mnemonic(decode(word).op) + " needs " +
                       std::to_string(e.fp_needs));
          return;  // depths past an underflow are meaningless
        }
        fp += e.fp_delta;
        if (fp > static_cast<int>(kNumFpr)) {
          if (pass == 1)
            report("fp-overflow", pc,
                   "relative FP-stack depth " + std::to_string(fp) +
                       " exceeds the " + std::to_string(kNumFpr) +
                       "-slot stack");
          return;
        }
        if (e.frame_delta < 0 && frame + e.frame_delta < 0) {
          if (pass == 1)
            report("frame-imbalance", pc, "leave with no matching enter");
          return;
        }
        frame += e.frame_delta;
      }
      if (aborted) continue;
      // Apply the callee's net FP effect across a call terminator.
      if (const std::uint32_t callee = cfg.callee_of(id);
          callee != Cfg::kNoBlock && summaries[callee].known)
        fp += summaries[callee].fp_delta;
      if (b.term == FlowKind::kRet) {
        if (frame != 0) {
          if (pass == 1)
            report("frame-imbalance", b.end - 4,
                   "ret with enter/leave depth " + std::to_string(frame));
          return;
        }
        if (ret_fp && *ret_fp != fp) {
          if (pass == 1)
            report("fp-ret-mismatch", b.end - 4,
                   "rets leave FP-stack depths " + std::to_string(*ret_fp) +
                       " and " + std::to_string(fp));
          return;
        }
        ret_fp = fp;
        continue;
      }
      for (std::uint32_t s : b.succ) {
        // Don't follow edges out of this function's closure.
        if (!std::binary_search(fn.blocks.begin(), fn.blocks.end(), s))
          continue;
        if (!in[s].set) {
          in[s] = {fp, frame, true};
        } else if (in[s].fp != fp || in[s].frame != frame) {
          if (pass == 1)
            report("fp-join-mismatch", cfg.block(s).begin,
                   "paths join with FP/frame depths (" +
                       std::to_string(in[s].fp) + "," +
                       std::to_string(in[s].frame) + ") vs (" +
                       std::to_string(fp) + "," + std::to_string(frame) +
                       ")");
          return;
        }
      }
    }
  };
  run_pass(0);
  run_pass(1);
  return ret_fp ? FnSummary{*ret_fp, true} : FnSummary{};
}

void check_fp_and_frames(const Cfg& cfg, std::vector<Diagnostic>& diags) {
  const auto& fns = cfg.functions();
  std::vector<FnSummary> summaries(fns.size());
  // Iterate summaries to a fixpoint (no diagnostics while unstable)...
  summary_rounds(summaries, 8, [&](std::uint32_t i) {
    return check_function_depths(cfg, fns[i], summaries, nullptr);
  });
  // ...then one reporting pass against the stable summaries.
  for (const Cfg::Function& fn : fns)
    check_function_depths(cfg, fn, summaries, &diags);
}

}  // namespace

// ---------------------------------------------------------------------------
// Symbol access scan: direct loads/stores through la-materialised
// addresses, tracked per block with constant propagation through mov/addi;
// anything fancier escapes, which conservatively counts as read+written.
// ---------------------------------------------------------------------------

std::map<Addr, SymbolAccess> scan_symbol_access(const Cfg& cfg,
                                                const Liveness& live) {
  const Program& prog = cfg.program();
  struct Range {
    Addr lo, hi;
    Addr key;
  };
  std::vector<Range> ranges;
  for (const Symbol& s : prog.symbols()) {
    if (s.segment != Segment::kData && s.segment != Segment::kBss) continue;
    ranges.push_back({s.address, s.address + (s.size ? s.size : 1), s.address});
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.lo < b.lo; });
  std::map<Addr, SymbolAccess> access;
  for (const Range& r : ranges) access.emplace(r.key, SymbolAccess{});

  auto owner = [&](Addr a) -> SymbolAccess* {
    auto it = std::upper_bound(
        ranges.begin(), ranges.end(), a,
        [](Addr v, const Range& r) { return v < r.lo; });
    if (it == ranges.begin()) return nullptr;
    --it;
    if (a >= it->lo && a < it->hi) return &access[it->key];
    return nullptr;
  };
  auto mark = [&](Addr a, bool read, bool write, bool escape, Addr pc = 0) {
    if (SymbolAccess* sa = owner(a)) {
      sa->read |= read;
      sa->written |= write;
      sa->escaped |= escape;
      if (read) {
        ++sa->read_sites;
        sa->read_pcs.push_back(pc);
      }
      if (write) ++sa->write_sites;
    }
  };

  for (std::uint32_t id = 0; id < cfg.blocks().size(); ++id) {
    if (!cfg.reachable_block(id)) continue;
    const Block& b = cfg.block(id);
    std::array<std::optional<Addr>, kNumGpr> known{};
    auto escape_reg = [&](unsigned r) {
      if (known[r]) mark(*known[r], false, false, true);
      known[r].reset();
    };
    for (Addr pc = b.begin; pc < b.end; pc += 4) {
      const Instr in = decode(cfg.word_at(pc));
      switch (in.op) {
        case Op::kLui:
          known[in.a] = static_cast<Addr>(in.imm) << 16;
          continue;
        case Op::kOri:
          if (in.b == in.a && known[in.a]) {
            known[in.a] = *known[in.a] | in.imm;
          } else {
            escape_reg(in.a);
          }
          continue;
        case Op::kMov:
          known[in.a] = known[in.b];
          continue;
        case Op::kAddi:
          if (known[in.b]) {
            known[in.a] = *known[in.b] + static_cast<Addr>(in.simm());
          } else {
            known[in.a].reset();
          }
          continue;
        case Op::kLdw:
        case Op::kLdb:
          if (known[in.b])
            mark(*known[in.b] + static_cast<Addr>(in.simm()), true, false,
                 false, pc);
          known[in.a].reset();
          continue;
        case Op::kFld:
          if (known[in.b])
            mark(*known[in.b] + static_cast<Addr>(in.simm()), true, false,
                 false, pc);
          continue;
        case Op::kStw:
        case Op::kStb:
          if (known[in.b])
            mark(*known[in.b] + static_cast<Addr>(in.simm()), false, true,
                 false);
          escape_reg(in.a);  // storing a pointer publishes it
          continue;
        case Op::kFst:
        case Op::kFstnp:
          if (known[in.b])
            mark(*known[in.b] + static_cast<Addr>(in.simm()), false, true,
                 false);
          continue;
        case Op::kPush:
          escape_reg(in.a);
          continue;
        case Op::kSys:
        case Op::kCall:
        case Op::kCallr: {
          // Callee / handler may dereference any argument pointer — but
          // only through a register that is still live here. A dead
          // register is overwritten before any read on every path, so the
          // address copy it holds can never become a load or store base.
          const std::uint16_t live_mask = live.live_in(pc);
          for (unsigned r = 0; r < kNumGpr; ++r) {
            if ((live_mask & reg_bit(r)) != 0)
              escape_reg(r);
            else
              known[r].reset();
          }
          continue;
        }
        default: {
          const RegEffect e = instr_effect(encode(in.op, in.a, in.b, in.imm),
                                           DefUseModel::kSound);
          // A known address consumed by arbitrary arithmetic becomes a
          // computed pointer we no longer track: escape it.
          for (unsigned r = 0; r < kNumGpr; ++r) {
            if ((e.use & reg_bit(r)) != 0) escape_reg(r);
          }
          for (unsigned r = 0; r < kNumGpr; ++r) {
            if ((e.def & reg_bit(r)) != 0) known[r].reset();
          }
          continue;
        }
      }
    }
    // Addresses still tracked at the block boundary may be used by a
    // successor we don't track into: escape the ones the liveness
    // analysis cannot prove dead across the edge (block_live_out resolves
    // call, ret and fall-through flow kinds alike).
    const std::uint16_t out_mask = live.block_live_out(id);
    for (unsigned r = 0; r < kNumGpr; ++r) {
      if ((out_mask & reg_bit(r)) != 0)
        escape_reg(r);
      else
        known[r].reset();
    }
  }
  return access;
}

LintResult run_lint(const ProgramAnalysis& analysis,
                    const LintOptions& options) {
  const Cfg& cfg = analysis.cfg();
  LintResult res;
  std::vector<Diagnostic> errors, warnings;
  const Program& prog = cfg.program();

  auto err = [&](std::string code, Addr addr, std::string msg) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.code = std::move(code);
    d.addr = addr;
    d.symbol = symbol_name_at(cfg, addr);
    d.message = std::move(msg);
    errors.push_back(std::move(d));
  };
  auto warn = [&](std::string code, Addr addr, std::string symbol,
                  std::string msg) {
    if (suppressed_name(symbol, options)) {
      ++res.suppressed;
      return;
    }
    Diagnostic d;
    d.severity = Severity::kWarning;
    d.code = std::move(code);
    d.addr = addr;
    d.symbol = std::move(symbol);
    d.message = std::move(msg);
    warnings.push_back(std::move(d));
  };

  // --- structural errors -------------------------------------------------
  for (std::uint32_t id = 0; id < cfg.blocks().size(); ++id) {
    const Block& b = cfg.block(id);
    const Addr term_pc = b.end - 4;
    if (b.bad_target) {
      const Instr in = decode(cfg.word_at(term_pc));
      const Addr t = rel_target(term_pc, in);
      err(b.term == FlowKind::kCall ? "bad-call-target" : "bad-branch-target",
          term_pc,
          std::string(mnemonic(in.op)) + " targets " + hexaddr(t) +
              ", outside the text segments");
    }
    if (b.falls_off_end && cfg.reachable_block(id)) {
      err("fall-off-end", term_pc,
          "execution can run past the end of the code segment");
    }
    if (b.term == FlowKind::kIllegal && cfg.reachable_block(id)) {
      err("illegal-opcode", term_pc,
          "reachable undefined opcode 0x" +
              [&] {
                char buf[8];
                std::snprintf(buf, sizeof buf, "%02x",
                              cfg.word_at(term_pc) & 0xff);
                return std::string(buf);
              }());
    }
  }

  check_fp_and_frames(cfg, errors);

  // Absolute FP-stack depth bounds (fpdepth.hpp): catches what the relative
  // per-function checks above cannot — a callee whose interior depth only
  // exceeds the 8 slots once the caller's entry depth is added, or an
  // instruction whose operands no reachable path provides.
  for (const FpDepthIssue& issue : analysis.fpdepth().issues()) {
    if (issue.is_error) {
      err(issue.code, issue.addr, issue.message);
    } else {
      warn(issue.code, issue.addr, symbol_name_at(cfg, issue.addr),
           issue.message);
    }
  }

  // --- warnings ----------------------------------------------------------
  // Unreachable user-text code, grouped per covering symbol.
  {
    std::map<std::string, std::pair<Addr, int>> dead;  // name -> {addr, instrs}
    for (std::uint32_t id = 0; id < cfg.blocks().size(); ++id) {
      const Block& b = cfg.block(id);
      if (!cfg.in_user_text(b.begin) || cfg.reachable_block(id)) continue;
      const std::string name = symbol_name_at(cfg, b.begin);
      auto [it, fresh] =
          dead.emplace(name, std::make_pair(b.begin, 0));
      if (!fresh) it->second.first = std::min(it->second.first, b.begin);
      it->second.second += static_cast<int>((b.end - b.begin) / 4);
    }
    for (const auto& [name, info] : dead) {
      warn("unreachable", info.first, name,
           std::to_string(info.second) + " unreachable instruction" +
               (info.second == 1 ? "" : "s"));
    }
  }

  // Registers read before ever being written, on some path from the entry
  // point (kLint model, lint's own liveness; sp/fp are initialised by the
  // loader).
  {
    const Liveness lint_liveness(cfg, DefUseModel::kLint);
    const std::uint16_t live = lint_liveness.live_in(prog.entry());
    for (unsigned r = 0; r < kNumGpr; ++r) {
      if (r == kSp || r == kFp) continue;
      if ((live & reg_bit(r)) != 0) {
        warn("uninit-reg-read", prog.entry(), symbol_name_at(cfg, prog.entry()),
             "r" + std::to_string(r) +
                 " may be read before any write on a path from entry");
      }
    }
  }

  // Value-range findings: conditional branches the interval analysis
  // decides statically (one arm dead) and stores whose address interval
  // runs past the symbol it starts in (valuerange.hpp).
  for (const ValueRangeIssue& issue : analysis.valuerange().issues()) {
    warn(issue.code, issue.addr, symbol_name_at(cfg, issue.addr),
         issue.message);
  }

  // Data/BSS symbol access smells.
  const std::map<Addr, SymbolAccess>& access = analysis.symbol_access();
  for (const Symbol& s : prog.symbols()) {
    if (s.segment != Segment::kData && s.segment != Segment::kBss) continue;
    auto it = access.find(s.address);
    if (it == access.end()) continue;
    const SymbolAccess& sa = it->second;
    if (sa.escaped) continue;  // untrackable: assume read+written
    if (sa.written && !sa.read) {
      warn("write-only-symbol", s.address, s.name,
           std::string(s.segment == Segment::kBss ? "BSS" : "data") +
               " symbol is written but never read");
    }
    if (s.segment == Segment::kBss && sa.read && !sa.written) {
      warn("bss-read-never-written", s.address, s.name,
           "BSS symbol is read but never written (always zero)");
    }
  }

  // Heap and frame liveness smells (informational): user allocation sites
  // whose chunks are provably never read, and local frame slots written but
  // never read. Both are the pruning rungs' own analyses, so what lint flags
  // is exactly what --prune=full skips.
  const HeapLiveness& heap = analysis.heapliveness();
  for (const auto& [site, info] : heap.sites()) {
    if (!info.user) continue;  // library-internal allocations are noise
    if (heap.site_dead(site)) {
      warn("heap-write-only", site, info.symbol,
           "heap chunks allocated here are " +
               std::string(info.written ? "written but never read"
                                        : "never accessed"));
    }
  }
  for (const StackFrameAccess& fa : analysis.memliveness().frames()) {
    const int dead = fa.dead_slots();
    if (dead > 0) {
      warn("frame-dead-slot", fa.entry, fa.symbol,
           std::to_string(dead) + " local frame byte" +
               (dead == 1 ? "" : "s") + " written but never read");
    }
  }

  // Stable order: errors by address then code, warnings likewise.
  auto order = [](const Diagnostic& a, const Diagnostic& b) {
    if (a.addr != b.addr) return a.addr < b.addr;
    return a.code < b.code;
  };
  std::sort(errors.begin(), errors.end(), order);
  std::sort(warnings.begin(), warnings.end(), order);
  res.errors = static_cast<int>(errors.size());
  res.warnings = static_cast<int>(warnings.size());
  res.diagnostics = std::move(errors);
  res.diagnostics.insert(res.diagnostics.end(),
                         std::make_move_iterator(warnings.begin()),
                         std::make_move_iterator(warnings.end()));
  return res;
}

std::string format_lint(const LintResult& result, const std::string& name) {
  std::ostringstream out;
  out << "lint " << name << ":\n";
  for (const Diagnostic& d : result.diagnostics) {
    out << "  " << (d.severity == Severity::kError ? "error  " : "warning")
        << "  " << hexaddr(d.addr) << "  " << d.code;
    if (!d.symbol.empty()) out << " [" << d.symbol << "]";
    out << ": " << d.message << "\n";
  }
  out << "  " << result.errors << " error" << (result.errors == 1 ? "" : "s")
      << ", " << result.warnings << " warning"
      << (result.warnings == 1 ? "" : "s");
  if (result.suppressed > 0) out << ", " << result.suppressed << " suppressed";
  out << "\n";
  return out.str();
}

std::string lint_json(const LintResult& result, const std::string& name) {
  util::JsonWriter w;
  w.begin_object();
  w.key("name").value(name);
  w.key("errors").value(result.errors);
  w.key("warnings").value(result.warnings);
  w.key("suppressed").value(result.suppressed);
  w.key("diagnostics").begin_array();
  for (const Diagnostic& d : result.diagnostics) {
    w.begin_object();
    w.key("severity").value(d.severity == Severity::kError ? "error"
                                                           : "warning");
    w.key("code").value(d.code);
    w.key("addr").value(static_cast<std::uint64_t>(d.addr));
    w.key("symbol").value(d.symbol);
    w.key("message").value(d.message);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace fsim::svm::analysis
