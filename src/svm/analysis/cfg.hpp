// Static control-flow model of a linked SVM program image.
//
// This is the static counterpart of the dynamic activation analysis in
// trace/working_set.cpp: a basic-block CFG over the *uncorrupted* user and
// library text, from which reachability, function extents and (with
// liveness.hpp) per-pc register liveness are derived. The per-instruction
// successor classification (flow_of / rel_target) is the single flow model
// shared with core::ControlFlowChecker, so the signature database the CFC
// checks at run time and the graph the analyzer reasons over can never
// disagree.
//
// Assumptions the model rests on (all guaranteed by the assembler):
//  * code addresses enter registers only through `la` (lui+ori pairs) or
//    through `.word symbol` data relocations — both are scanned, so the
//    address-taken set over-approximates every indirect branch target;
//  * instructions are 4-byte aligned words; text segments hold only code.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "svm/isa.hpp"
#include "svm/program.hpp"

namespace fsim::svm::analysis {

/// Control-transfer class of an instruction.
enum class FlowKind : std::uint8_t {
  kFallthrough,   // ordinary instruction: pc+4
  kBranch,        // conditional: pc+4 or relative target
  kJump,          // unconditional relative target
  kIndirectJump,  // jmpr: register target
  kCall,          // relative target, pushes return address
  kIndirectCall,  // callr: register target, pushes return address
  kRet,           // pops return address
  kSys,           // pc+4, but a blocked syscall re-fetches its own pc
  kIllegal,       // undefined opcode: traps
};

/// Flow class of one encoded instruction word.
FlowKind flow_of(std::uint32_t word) noexcept;

/// Target of a kBranch / kJump / kCall instruction at `pc`.
constexpr Addr rel_target(Addr pc, const Instr& in) noexcept {
  return pc + 4 + static_cast<Addr>(in.simm()) * 4;
}

/// True for `sys` words that terminate the rank (exit / assert-fail):
/// control never flows past them, so every pass stops its block walk there.
bool aborting_sys(const Instr& in) noexcept;

struct Block {
  Addr begin = 0;
  Addr end = 0;  // exclusive; terminator at end-4
  FlowKind term = FlowKind::kFallthrough;
  /// Intraprocedural successors (block ids): branch fallthrough+target,
  /// jump target, call *fallthrough* (the callee is in `call_target`).
  std::vector<std::uint32_t> succ;
  std::int32_t call_target = -1;  // callee entry block for kCall into code
  bool call_outside = false;      // kCall target outside text+libtext
  bool bad_target = false;        // branch/jump/call target outside code
  bool falls_off_end = false;     // execution can run past the segment end
};

/// Basic-block CFG over user text plus library text.
class Cfg {
 public:
  static constexpr std::uint32_t kNoBlock = 0xffffffffu;

  explicit Cfg(const Program& program);

  const Program& program() const noexcept { return *program_; }
  const std::vector<Block>& blocks() const noexcept { return blocks_; }
  const Block& block(std::uint32_t id) const { return blocks_[id]; }

  /// Block containing `pc`; kNoBlock outside the analyzed code ranges.
  std::uint32_t block_index_of(Addr pc) const noexcept;

  bool in_user_text(Addr a) const noexcept {
    return a >= text_base_ && a < text_end_;
  }
  bool in_code(Addr a) const noexcept {
    return in_user_text(a) || (a >= lib_base_ && a < lib_end_);
  }
  Addr user_text_base() const noexcept { return text_base_; }
  Addr user_text_end() const noexcept { return text_end_; }

  /// Raw instruction word at a code address (0 outside the ranges).
  std::uint32_t word_at(Addr pc) const noexcept;

  /// Dense instruction indexing (user text first, then library text) for
  /// per-instruction side tables; kNoBlock outside the code ranges.
  std::uint32_t instr_index(Addr pc) const noexcept { return index_of(pc); }
  std::uint32_t num_instructions() const noexcept { return n_total_; }

  /// Whole-program reachability from the entry point, following branch,
  /// call and address-taken edges (over-approximate).
  bool reachable_block(std::uint32_t id) const {
    return id != kNoBlock && reachable_[id];
  }
  bool reachable_addr(Addr a) const {
    return reachable_block(block_index_of(a));
  }

  /// Every absolute address materialised by a lui+ori pair in code or by a
  /// pointer-sized word in .data (the static address-taken set).
  const std::set<Addr>& materialized() const noexcept { return materialized_; }
  bool address_taken(Addr a) const { return materialized_.count(a) > 0; }

  /// Function partitioning: entries are the program entry, every static
  /// call target, every address-taken text address, and every symbol that
  /// starts a range or directly follows a ret (how the assembler lays out
  /// consecutive functions).
  struct Function {
    std::uint32_t entry = kNoBlock;
    std::vector<std::uint32_t> blocks;        // intraprocedural closure
    std::vector<std::uint32_t> rets;          // member blocks ending in ret
    std::vector<std::uint32_t> return_sites;  // blocks after calls to this fn
    bool address_taken = false;               // may be invoked indirectly
    const Symbol* symbol = nullptr;           // covering symbol, for reports

    /// Position of `block` in `blocks`; kNoBlock if it is not a member.
    std::uint32_t local_index(std::uint32_t block) const noexcept;
  };
  const std::vector<Function>& functions() const noexcept { return functions_; }
  /// Ids (into functions()) of the functions whose intraprocedural closure
  /// contains `block`; empty for blocks outside any detected function.
  const std::vector<std::uint32_t>& functions_of(std::uint32_t block) const;

  /// Id of the function whose entry is `block`; kNoBlock if none starts
  /// there.
  std::uint32_t function_starting_at(std::uint32_t block) const noexcept {
    return block < fn_at_entry_.size() ? fn_at_entry_[block] : kNoBlock;
  }
  /// Id of the function a direct call terminating `block` enters; kNoBlock
  /// for other terminators and for calls whose target is outside the code.
  std::uint32_t callee_of(std::uint32_t block) const noexcept {
    const Block& b = blocks_[block];
    return b.term == FlowKind::kCall && b.call_target >= 0
               ? function_starting_at(static_cast<std::uint32_t>(b.call_target))
               : kNoBlock;
  }

  /// Does some reachable block end in an indirect jump or call? Then any
  /// address-taken code address can be entered in any state.
  bool reachable_indirect() const noexcept { return reachable_indirect_; }

  std::uint32_t entry_block() const noexcept { return entry_block_; }

 private:
  // Instruction indexing: user text instructions first, then library text.
  std::uint32_t index_of(Addr a) const noexcept;  // kNoBlock if outside
  Addr addr_of(std::uint32_t index) const noexcept;

  void scan_materialized();
  void build_blocks();
  void compute_reachability();
  void build_functions();

  const Program* program_;
  Addr text_base_ = 0, text_end_ = 0;
  Addr lib_base_ = 0, lib_end_ = 0;
  std::uint32_t n_text_ = 0, n_total_ = 0;
  std::vector<std::uint32_t> words_;     // decoded code, text then libtext
  std::vector<std::uint32_t> block_of_;  // instruction index -> block id
  std::vector<Block> blocks_;
  std::vector<bool> reachable_;
  std::set<Addr> materialized_;
  std::vector<Function> functions_;
  std::vector<std::vector<std::uint32_t>> funcs_of_block_;
  std::vector<std::uint32_t> fn_at_entry_;  // block id -> function id
  std::uint32_t entry_block_ = kNoBlock;
  bool reachable_indirect_ = false;
};

}  // namespace fsim::svm::analysis
