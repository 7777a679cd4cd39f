#include "svm/analysis/cfg.hpp"

#include <algorithm>
#include <cstring>
#include <deque>

#include "svm/syscall.hpp"

namespace fsim::svm::analysis {

FlowKind flow_of(std::uint32_t word) noexcept {
  const Instr in = decode(word);
  if (!is_valid_opcode(static_cast<std::uint8_t>(in.op)))
    return FlowKind::kIllegal;
  switch (in.op) {
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      return FlowKind::kBranch;
    case Op::kJmp:
      return FlowKind::kJump;
    case Op::kJmpr:
      return FlowKind::kIndirectJump;
    case Op::kCall:
      return FlowKind::kCall;
    case Op::kCallr:
      return FlowKind::kIndirectCall;
    case Op::kRet:
      return FlowKind::kRet;
    case Op::kSys:
      return FlowKind::kSys;
    default:
      return FlowKind::kFallthrough;
  }
}

bool aborting_sys(const Instr& in) noexcept {
  return in.op == Op::kSys &&
         (in.imm == static_cast<std::uint16_t>(Sys::kExit) ||
          in.imm == static_cast<std::uint16_t>(Sys::kAssertFail));
}

namespace {

std::uint32_t load_word(const std::vector<std::byte>& img, std::size_t off) {
  std::uint32_t w = 0;
  if (off + 4 <= img.size()) std::memcpy(&w, img.data() + off, 4);
  return w;
}

}  // namespace

Cfg::Cfg(const Program& program) : program_(&program) {
  text_base_ = program.segment_base(Segment::kText);
  text_end_ = text_base_ + program.segment_size(Segment::kText);
  lib_base_ = program.segment_base(Segment::kLibText);
  lib_end_ = lib_base_ + program.segment_size(Segment::kLibText);
  n_text_ = (text_end_ - text_base_) / 4;
  n_total_ = n_text_ + (lib_end_ - lib_base_) / 4;

  words_.resize(n_total_);
  const auto& text = program.image(Segment::kText);
  const auto& lib = program.image(Segment::kLibText);
  for (std::uint32_t i = 0; i < n_text_; ++i)
    words_[i] = load_word(text, std::size_t{i} * 4);
  for (std::uint32_t i = n_text_; i < n_total_; ++i)
    words_[i] = load_word(lib, std::size_t{i - n_text_} * 4);

  scan_materialized();
  build_blocks();
  compute_reachability();
  build_functions();
}

std::uint32_t Cfg::index_of(Addr a) const noexcept {
  if (a % 4 != 0) return kNoBlock;
  if (a >= text_base_ && a < text_end_) return (a - text_base_) / 4;
  if (a >= lib_base_ && a < lib_end_)
    return n_text_ + (a - lib_base_) / 4;
  return kNoBlock;
}

Addr Cfg::addr_of(std::uint32_t index) const noexcept {
  if (index < n_text_) return text_base_ + index * 4;
  return lib_base_ + (index - n_text_) * 4;
}

std::uint32_t Cfg::word_at(Addr pc) const noexcept {
  const std::uint32_t i = index_of(pc);
  return i == kNoBlock ? 0 : words_[i];
}

std::uint32_t Cfg::block_index_of(Addr pc) const noexcept {
  const std::uint32_t i = index_of(pc);
  return i == kNoBlock ? kNoBlock : block_of_[i];
}

void Cfg::scan_materialized() {
  // lui rd, hi immediately followed by ori rd, rd, lo is the assembler's
  // only way to materialise a 32-bit constant (`la` and wide `li` both
  // expand to it), so scanning adjacent pairs captures every code or data
  // address a register can hold. Instruction adjacency is what matters,
  // not block structure, so this runs over the raw word stream.
  for (std::uint32_t i = 0; i + 1 < n_total_; ++i) {
    // The pair never straddles the text/libtext boundary.
    if (i + 1 == n_text_) continue;
    const Instr hi = decode(words_[i]);
    const Instr lo = decode(words_[i + 1]);
    if (hi.op == Op::kLui && lo.op == Op::kOri && lo.a == hi.a &&
        lo.b == hi.a) {
      materialized_.insert((static_cast<Addr>(hi.imm) << 16) | lo.imm);
    }
  }
  // Pointer-sized words in .data whose value lands inside a code range:
  // cheap insurance against code pointers placed by `.word symbol`
  // relocations. False positives only widen the address-taken set.
  const auto& data = program_->image(Segment::kData);
  for (std::size_t off = 0; off + 4 <= data.size(); off += 4) {
    const Addr v = load_word(data, off);
    if (v % 4 == 0 && in_code(v)) materialized_.insert(v);
  }
}

void Cfg::build_blocks() {
  // Pass 1: leaders. Range starts, text symbols, control-transfer targets,
  // and the instruction after any terminator.
  std::vector<bool> leader(n_total_, false);
  if (n_total_ == 0) {
    block_of_.clear();
    return;
  }
  if (n_text_ > 0) leader[0] = true;
  if (n_text_ < n_total_) leader[n_text_] = true;
  for (const Symbol& s : program_->symbols()) {
    const std::uint32_t i = index_of(s.address);
    if (i != kNoBlock) leader[i] = true;
  }
  for (Addr a : materialized_) {
    const std::uint32_t i = index_of(a);
    if (i != kNoBlock) leader[i] = true;
  }
  for (std::uint32_t i = 0; i < n_total_; ++i) {
    const FlowKind k = flow_of(words_[i]);
    if (k == FlowKind::kFallthrough || k == FlowKind::kSys) continue;
    if (i + 1 < n_total_) leader[i + 1] = true;
    if (k == FlowKind::kBranch || k == FlowKind::kJump ||
        k == FlowKind::kCall) {
      const Addr t = rel_target(addr_of(i), decode(words_[i]));
      const std::uint32_t ti = index_of(t);
      if (ti != kNoBlock) leader[ti] = true;
    }
  }

  // Pass 2: slice into blocks and record per-instruction membership.
  block_of_.assign(n_total_, kNoBlock);
  for (std::uint32_t i = 0; i < n_total_;) {
    std::uint32_t j = i + 1;
    while (j < n_total_ && !leader[j]) ++j;
    Block b;
    b.begin = addr_of(i);
    b.end = addr_of(j - 1) + 4;
    b.term = flow_of(words_[j - 1]);
    const std::uint32_t id = static_cast<std::uint32_t>(blocks_.size());
    for (std::uint32_t k = i; k < j; ++k) block_of_[k] = id;
    blocks_.push_back(std::move(b));
    i = j;
  }

  // Pass 3: successor edges.
  for (std::uint32_t id = 0; id < blocks_.size(); ++id) {
    Block& b = blocks_[id];
    const Addr term_pc = b.end - 4;
    const Instr in = decode(word_at(term_pc));
    const bool last_of_range =
        term_pc + 4 == text_end_ || term_pc + 4 == lib_end_;
    auto fallthrough = [&] {
      if (last_of_range) {
        b.falls_off_end = true;
      } else {
        b.succ.push_back(block_of_[index_of(term_pc + 4)]);
      }
    };
    auto take_target = [&] {
      const Addr t = rel_target(term_pc, in);
      const std::uint32_t ti = index_of(t);
      if (ti == kNoBlock) {
        b.bad_target = true;
      } else {
        b.succ.push_back(block_of_[ti]);
      }
    };
    switch (b.term) {
      case FlowKind::kFallthrough:
      case FlowKind::kSys:
        fallthrough();
        break;
      case FlowKind::kBranch:
        fallthrough();
        take_target();
        break;
      case FlowKind::kJump:
        take_target();
        break;
      case FlowKind::kCall: {
        const Addr t = rel_target(term_pc, in);
        const std::uint32_t ti = index_of(t);
        if (ti == kNoBlock) {
          b.call_outside = true;
          b.bad_target = true;
        } else {
          b.call_target = static_cast<std::int32_t>(block_of_[ti]);
        }
        fallthrough();  // intraprocedural edge: execution resumes here
        break;
      }
      case FlowKind::kIndirectCall:
        fallthrough();
        break;
      case FlowKind::kIndirectJump:
      case FlowKind::kRet:
      case FlowKind::kIllegal:
        break;  // no static successors
    }
    // De-dup (a branch whose target is its own fallthrough).
    std::sort(b.succ.begin(), b.succ.end());
    b.succ.erase(std::unique(b.succ.begin(), b.succ.end()), b.succ.end());
  }
}

void Cfg::compute_reachability() {
  reachable_.assign(blocks_.size(), false);
  if (blocks_.empty()) return;
  std::deque<std::uint32_t> work;
  auto push = [&](std::uint32_t id) {
    if (id != kNoBlock && !reachable_[id]) {
      reachable_[id] = true;
      work.push_back(id);
    }
  };
  entry_block_ = block_index_of(program_->entry());
  push(entry_block_);
  // Address-taken blocks are reachable targets of jmpr/callr and of code
  // pointers stored in data; treating them as roots keeps reachability an
  // over-approximation without tracking indirect flow.
  for (Addr a : materialized_) push(block_index_of(a));
  while (!work.empty()) {
    const Block& b = blocks_[work.front()];
    work.pop_front();
    for (std::uint32_t s : b.succ) push(s);
    if (b.call_target >= 0)
      push(static_cast<std::uint32_t>(b.call_target));
  }
  for (std::uint32_t id = 0; id < blocks_.size(); ++id)
    if (reachable_[id] && (blocks_[id].term == FlowKind::kIndirectCall ||
                           blocks_[id].term == FlowKind::kIndirectJump))
      reachable_indirect_ = true;
}

void Cfg::build_functions() {
  funcs_of_block_.assign(blocks_.size(), {});
  fn_at_entry_.assign(blocks_.size(), kNoBlock);
  if (blocks_.empty()) return;

  std::set<std::uint32_t> entries;
  if (entry_block_ != kNoBlock) entries.insert(entry_block_);
  for (const Block& b : blocks_) {
    if (b.call_target >= 0)
      entries.insert(static_cast<std::uint32_t>(b.call_target));
  }
  for (Addr a : materialized_) {
    const std::uint32_t id = block_index_of(a);
    if (id != kNoBlock && blocks_[id].begin == a) entries.insert(id);
  }
  // Symbols that start a range or directly follow a ret start a function —
  // the assembler lays consecutive functions out exactly this way. (A
  // symbol after an unconditional jmp is NOT split off: that shape occurs
  // inside loops.) Exception: a symbol that is a branch or jump target of
  // other code is intraprocedural flow, not a function entry — error
  // handlers placed after their function's ret (`blt ..., fail` ...
  // `ret` ... `fail:`) are the canonical shape. Functions proper are only
  // ever entered by call.
  std::set<Addr> flow_targets;
  for (const Block& b : blocks_) {
    if (b.term != FlowKind::kBranch && b.term != FlowKind::kJump) continue;
    flow_targets.insert(rel_target(b.end - 4, decode(word_at(b.end - 4))));
  }
  for (const Symbol& s : program_->symbols()) {
    const std::uint32_t i = index_of(s.address);
    if (i == kNoBlock) continue;
    if (i == 0 || i == n_text_ ||
        (decode(words_[i - 1]).op == Op::kRet &&
         flow_targets.count(s.address) == 0)) {
      entries.insert(block_of_[i]);
    }
  }

  for (std::uint32_t e : entries) {
    Function fn;
    fn.entry = e;
    fn.symbol = program_->symbol_covering(blocks_[e].begin);
    const Addr begin = blocks_[e].begin;
    fn.address_taken = materialized_.count(begin) > 0;
    // Intraprocedural closure: follow succ edges only (calls stop at the
    // fallthrough), but never cross into another function's entry.
    std::deque<std::uint32_t> work{e};
    std::set<std::uint32_t> seen{e};
    while (!work.empty()) {
      const std::uint32_t id = work.front();
      work.pop_front();
      fn.blocks.push_back(id);
      if (blocks_[id].term == FlowKind::kRet) fn.rets.push_back(id);
      for (std::uint32_t s : blocks_[id].succ) {
        if (s != e && entries.count(s) > 0) continue;
        if (seen.insert(s).second) work.push_back(s);
      }
    }
    std::sort(fn.blocks.begin(), fn.blocks.end());
    const std::uint32_t fid = static_cast<std::uint32_t>(functions_.size());
    fn_at_entry_[e] = fid;
    for (std::uint32_t id : fn.blocks) funcs_of_block_[id].push_back(fid);
    functions_.push_back(std::move(fn));
  }

  // Return sites: for each call block, the fallthrough block is a return
  // site of the called function.
  for (const Block& b : blocks_) {
    if (b.call_target < 0) continue;
    const std::uint32_t callee = static_cast<std::uint32_t>(b.call_target);
    std::uint32_t site = kNoBlock;
    for (std::uint32_t s : b.succ) {
      // The call's only succ is the fallthrough (if it exists).
      site = s;
    }
    if (site == kNoBlock) continue;
    for (Function& fn : functions_) {
      if (fn.entry == callee) fn.return_sites.push_back(site);
    }
  }
}

std::uint32_t Cfg::Function::local_index(std::uint32_t block) const noexcept {
  const auto it = std::lower_bound(blocks.begin(), blocks.end(), block);
  return it != blocks.end() && *it == block
             ? static_cast<std::uint32_t>(it - blocks.begin())
             : kNoBlock;
}

const std::vector<std::uint32_t>& Cfg::functions_of(
    std::uint32_t block) const {
  static const std::vector<std::uint32_t> kEmpty;
  if (block >= funcs_of_block_.size()) return kEmpty;
  return funcs_of_block_[block];
}

}  // namespace fsim::svm::analysis
