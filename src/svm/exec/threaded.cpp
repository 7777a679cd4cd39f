// Threaded-code execution engine.
//
// Executes the pre-decoded DOp stream of a CompiledProgram with a
// computed-goto dispatch loop (portable switch fallback when the toolchain
// lacks the labels-as-values extension — see FSIM_HAVE_COMPUTED_GOTO in the
// top-level CMakeLists). The contract with the interpreter is bit-identical
// architectural state at every quantum boundary:
//
//  * the return value counts exactly what the interpreter counts — aborting
//    ops (traps, blocking/exiting syscalls) bump icount but not `executed`;
//  * traps carry the same Trap code and fault address, and leave pc on the
//    faulting instruction;
//  * syscalls run with pc still on the SYS word and may charge extra cycles;
//    after a completed syscall the window snapshot (exec/fastmem.hpp) and
//    compiled stream are re-validated, since handlers poke memory through
//    the privileged interface (a poke that grows a window bumps the window
//    version; a text poke bumps the code version);
//  * text flips between quanta are caught by the Memory code-version check
//    on entry; the machine then repatches a private copy of the stream.
//
// The hot loop keeps pc, the DOp cursor and the instruction counters in
// locals, flushing them to the architectural registers only at quantum
// boundaries, traps, syscalls and slow-path exits:
//
//  * straight-line flow advances the cursor (`++d`) instead of re-resolving
//    pc — a guard slot after each segment's ops (kGuardOp) catches running
//    off the end and re-resolves;
//  * taken branches jump through the precomputed target index (DOp::tindex);
//    only register-indirect transfers (jmpr/callr/ret) re-resolve;
//  * invalid words carry dispatch byte 0, whose table entry is the
//    illegal-instruction handler — no per-op validity branch.
//
// Tools that attach an AccessObserver never reach this loop — Machine::step
// routes them to the interpreter, which reports every fetch/load/store. A
// machine whose memory carries a ReadLog runs the recording instantiation,
// which stamps fetches and loads itself (the golden run's read oracle).
#include <cmath>
#include <cstring>
#include <limits>

#include "svm/machine.hpp"

namespace fsim::svm {

template <bool kRecord>
std::uint64_t Machine::step_threaded(std::uint64_t max_instructions) {
  if (core_.state != RunState::kReady) return 0;
  // Recording: every op entered stamps its fetch, and its loads, with its
  // number `at0 + ic`; handlers' peeks stamp through Memory with `now`.
  [[maybe_unused]] ReadLog* const log = mem_.read_log();
  [[maybe_unused]] const ReadLog::Stamps stamps =
      kRecord ? log->stamps() : ReadLog::Stamps{};
  [[maybe_unused]] std::uint64_t at0 = core_.icount;
  const exec::CompiledProgram* code = refresh_code();
  // The window snapshot persists across quanta: backing storage never
  // moves, so only a window change (a growing poke, a restore) or a
  // different owner invalidates it.
  exec::FastMem& fm = fastmem_;
  if (!fm.valid(mem_)) fm.refresh(mem_);

  auto& g = core_.regs.gpr;
  Fpu& f = core_.regs.fpu;
  std::uint32_t pc = core_.regs.pc;
  const exec::DOp* d = nullptr;
  // `ic` counts ops entered since the last core_.icount flush; `acc` holds
  // executed cycles already fully accounted (syscall charges, slow-path
  // ops). The architectural core_.icount and pc are flushed only at exits.
  std::uint64_t ic = 0;
  std::uint64_t acc = 0;
  std::uint64_t quota = max_instructions;

// An aborting op leaves pc on the faulting instruction and, exactly like the
// interpreter, is excluded from the executed count even though icount was
// bumped (the op did enter, so `ic` covers it).
#define VM_FAIL(trap, addr) \
  do {                      \
    core_.icount += ic;     \
    core_.regs.pc = pc;     \
    raise((trap), (addr));  \
    return acc + ic - 1;    \
  } while (0)

#if defined(FSIM_HAVE_COMPUTED_GOTO)
#define VM_CASE(name) L_##name:
#define VM_GOTO_OP() goto* kTable[d->op]
  // Label-address table indexed by the dispatch byte. Invalid words are
  // lowered with byte 0 (-> L_bad); kGuardOp (0x44) marks the guard slot
  // after each segment's ops; 0x2e/0x2f are unreachable (clamped) but point
  // at L_bad anyway.
  static void* const kTable[0x45] = {
      &&L_bad,   &&L_Nop,   &&L_Mov,   &&L_Ldi,   &&L_Lui,   &&L_Add,
      &&L_Sub,   &&L_Mul,   &&L_Divs,  &&L_Rems,  &&L_And,   &&L_Or,
      &&L_Xor,   &&L_Shl,   &&L_Shr,   &&L_Sra,   &&L_Addi,  &&L_Muli,
      &&L_Andi,  &&L_Ori,   &&L_Xori,  &&L_Shli,  &&L_Shri,  &&L_Srai,
      &&L_Slt,   &&L_Sltu,  &&L_Ldw,   &&L_Stw,   &&L_Ldb,   &&L_Stb,
      &&L_Push,  &&L_Pop,   &&L_Beq,   &&L_Bne,   &&L_Blt,   &&L_Bge,
      &&L_Bltu,  &&L_Bgeu,  &&L_Jmp,   &&L_Jmpr,  &&L_Call,  &&L_Callr,
      &&L_Ret,   &&L_Enter, &&L_Leave, &&L_Sys,   &&L_bad,   &&L_bad,
      &&L_Fld,   &&L_Fst,   &&L_Fstnp, &&L_Fldz,  &&L_Fld1,  &&L_Faddp,
      &&L_Fsubp, &&L_Fmulp, &&L_Fdivp, &&L_Fchs,  &&L_Fabs,  &&L_Fsqrt,
      &&L_Fsin,  &&L_Fcos,  &&L_Fxch,  &&L_Fdup,  &&L_Fcmp,  &&L_F2i,
      &&L_I2f,   &&L_Fpop,  &&L_guard};
#else
#define VM_CASE(name) case static_cast<std::uint8_t>(Op::k##name):
#define VM_GOTO_OP() goto dispatch_switch
#endif

// Enter the op the cursor points at: quantum check, charge, dispatch.
#define VM_DISPATCH()                     \
  do {                                    \
    if (ic >= quota) goto quantum_end;    \
    ++ic;                                 \
    if constexpr (kRecord)                \
      stamps.fetch(pc, static_cast<std::uint32_t>(at0 + ic)); \
    VM_GOTO_OP();                         \
  } while (0)
// A load that completed: stamp it when recording (over the older `now` a
// fallback through Memory stamped).
#define VM_READ(addr, bytes)                                        \
  do {                                                              \
    if constexpr (kRecord)                                          \
      stamps.load((addr), (bytes), static_cast<std::uint32_t>(at0 + ic)); \
  } while (0)
// Fall through to the next word: pure pointer/pc increment — the guard
// slot catches running off a segment end.
#define VM_NEXT_SEQ() \
  do {                \
    pc += 4;          \
    ++d;              \
    VM_DISPATCH();    \
  } while (0)
// Taken branch/jump/call through the precomputed target index.
#define VM_NEXT_TO(tgt, tidx)                                  \
  do {                                                         \
    pc = (tgt);                                                \
    if ((tidx) == exec::CompiledProgram::kNoIndex) goto slow;  \
    d = code->ops() + (tidx);                                  \
    VM_DISPATCH();                                             \
  } while (0)
// Register-indirect transfer: resolve the dynamic pc.
#define VM_NEXT_DYN(tgt) \
  do {                   \
    pc = (tgt);          \
    goto lookup;         \
  } while (0)

lookup: {
  const std::uint32_t idx = code->index_of(pc);
  if (idx == exec::CompiledProgram::kNoIndex) goto slow;
  d = code->ops() + idx;
  VM_DISPATCH();
}

slow:
  // Misaligned pc or pc outside the code segments (including the exit
  // sentinel): flush state and delegate one op to the interpreter, whose
  // fetch raises the precise trap / finishes the machine. But only within
  // the quantum: if the op that brought us here exhausted the budget, stop
  // at the boundary exactly like the interpreter's pre-op check does — the
  // trap/finish belongs to the next quantum.
  core_.icount += ic;
  acc += ic;
  ic = 0;
  core_.regs.pc = pc;
  if (acc >= max_instructions) return acc;
  {
    const std::uint64_t before = core_.icount;
    if (!exec_one()) return acc;
    acc += core_.icount - before;
  }
  if (acc >= max_instructions) return acc;
  quota = max_instructions - acc;
  at0 = core_.icount;
  pc = core_.regs.pc;
  if (mem_.code_version() != code_version_seen_) code = refresh_code();
  if (!fm.valid(mem_)) fm.refresh(mem_);
  goto lookup;

quantum_end:
  core_.icount += ic;
  core_.regs.pc = pc;
  return acc + ic;

#if !defined(FSIM_HAVE_COMPUTED_GOTO)
dispatch_switch:
  if (d->op == exec::kGuardOp) {
    --ic;  // a guard slot is not an instruction
    goto lookup;
  }
  switch (d->op) {
#endif

  VM_CASE(Nop) { VM_NEXT_SEQ(); }
  VM_CASE(Mov) {
    g[d->a] = g[d->b];
    VM_NEXT_SEQ();
  }
  VM_CASE(Ldi) {
    g[d->a] = static_cast<std::uint32_t>(d->simm);
    VM_NEXT_SEQ();
  }
  VM_CASE(Lui) {
    g[d->a] = static_cast<std::uint32_t>(d->imm) << 16;
    VM_NEXT_SEQ();
  }
  VM_CASE(Add) {
    g[d->a] = g[d->b] + g[d->c];
    VM_NEXT_SEQ();
  }
  VM_CASE(Sub) {
    g[d->a] = g[d->b] - g[d->c];
    VM_NEXT_SEQ();
  }
  VM_CASE(Mul) {
    g[d->a] = g[d->b] * g[d->c];
    VM_NEXT_SEQ();
  }
  VM_CASE(Divs) {
    const std::int32_t dv = static_cast<std::int32_t>(g[d->c]);
    if (dv == 0) VM_FAIL(Trap::kIntDivideByZero, pc);
    const std::int32_t n = static_cast<std::int32_t>(g[d->b]);
    if (n == std::numeric_limits<std::int32_t>::min() && dv == -1)
      VM_FAIL(Trap::kIntDivideByZero, pc);
    g[d->a] = static_cast<std::uint32_t>(n / dv);
    VM_NEXT_SEQ();
  }
  VM_CASE(Rems) {
    const std::int32_t dv = static_cast<std::int32_t>(g[d->c]);
    if (dv == 0) VM_FAIL(Trap::kIntDivideByZero, pc);
    const std::int32_t n = static_cast<std::int32_t>(g[d->b]);
    if (n == std::numeric_limits<std::int32_t>::min() && dv == -1)
      VM_FAIL(Trap::kIntDivideByZero, pc);
    g[d->a] = static_cast<std::uint32_t>(n % dv);
    VM_NEXT_SEQ();
  }
  VM_CASE(And) {
    g[d->a] = g[d->b] & g[d->c];
    VM_NEXT_SEQ();
  }
  VM_CASE(Or) {
    g[d->a] = g[d->b] | g[d->c];
    VM_NEXT_SEQ();
  }
  VM_CASE(Xor) {
    g[d->a] = g[d->b] ^ g[d->c];
    VM_NEXT_SEQ();
  }
  VM_CASE(Shl) {
    g[d->a] = g[d->b] << (g[d->c] & 31);
    VM_NEXT_SEQ();
  }
  VM_CASE(Shr) {
    g[d->a] = g[d->b] >> (g[d->c] & 31);
    VM_NEXT_SEQ();
  }
  VM_CASE(Sra) {
    g[d->a] = static_cast<std::uint32_t>(static_cast<std::int32_t>(g[d->b]) >>
                                         (g[d->c] & 31));
    VM_NEXT_SEQ();
  }
  VM_CASE(Addi) {
    g[d->a] = g[d->b] + static_cast<std::uint32_t>(d->simm);
    VM_NEXT_SEQ();
  }
  VM_CASE(Muli) {
    g[d->a] = g[d->b] * static_cast<std::uint32_t>(d->simm);
    VM_NEXT_SEQ();
  }
  VM_CASE(Andi) {
    g[d->a] = g[d->b] & d->imm;
    VM_NEXT_SEQ();
  }
  VM_CASE(Ori) {
    g[d->a] = g[d->b] | d->imm;
    VM_NEXT_SEQ();
  }
  VM_CASE(Xori) {
    g[d->a] = g[d->b] ^ d->imm;
    VM_NEXT_SEQ();
  }
  VM_CASE(Shli) {
    g[d->a] = g[d->b] << (d->imm & 31);
    VM_NEXT_SEQ();
  }
  VM_CASE(Shri) {
    g[d->a] = g[d->b] >> (d->imm & 31);
    VM_NEXT_SEQ();
  }
  VM_CASE(Srai) {
    g[d->a] = static_cast<std::uint32_t>(static_cast<std::int32_t>(g[d->b]) >>
                                         (d->imm & 31));
    VM_NEXT_SEQ();
  }
  VM_CASE(Slt) {
    g[d->a] = static_cast<std::int32_t>(g[d->b]) <
                      static_cast<std::int32_t>(g[d->c])
                  ? 1
                  : 0;
    VM_NEXT_SEQ();
  }
  VM_CASE(Sltu) {
    g[d->a] = g[d->b] < g[d->c] ? 1 : 0;
    VM_NEXT_SEQ();
  }
  VM_CASE(Ldw) {
    const Addr a = g[d->b] + static_cast<std::uint32_t>(d->simm);
    std::uint32_t v = 0;
    if (Trap t = fm.load32(a, v); t != Trap::kNone) VM_FAIL(t, a);
    VM_READ(a, 4);
    g[d->a] = v;
    VM_NEXT_SEQ();
  }
  VM_CASE(Stw) {
    const Addr a = g[d->b] + static_cast<std::uint32_t>(d->simm);
    if (Trap t = fm.store32(a, g[d->a]); t != Trap::kNone) VM_FAIL(t, a);
    VM_NEXT_SEQ();
  }
  VM_CASE(Ldb) {
    const Addr a = g[d->b] + static_cast<std::uint32_t>(d->simm);
    std::uint8_t v = 0;
    if (Trap t = fm.load8(a, v); t != Trap::kNone) VM_FAIL(t, a);
    VM_READ(a, 1);
    g[d->a] = v;
    VM_NEXT_SEQ();
  }
  VM_CASE(Stb) {
    const Addr a = g[d->b] + static_cast<std::uint32_t>(d->simm);
    if (Trap t = fm.store8(a, static_cast<std::uint8_t>(g[d->a]));
        t != Trap::kNone)
      VM_FAIL(t, a);
    VM_NEXT_SEQ();
  }
  VM_CASE(Push) {
    const Addr a = g[kSp] - 4;
    if (Trap t = fm.store32(a, g[d->a]); t != Trap::kNone)
      VM_FAIL(t == Trap::kBadAddress ? Trap::kStackOverflow : t, a);
    g[kSp] = a;
    VM_NEXT_SEQ();
  }
  VM_CASE(Pop) {
    std::uint32_t v = 0;
    if (Trap t = fm.load32(g[kSp], v); t != Trap::kNone) VM_FAIL(t, g[kSp]);
    VM_READ(g[kSp], 4);
    g[d->a] = v;
    g[kSp] += 4;
    VM_NEXT_SEQ();
  }
  VM_CASE(Beq) {
    if (g[d->a] == g[d->b]) VM_NEXT_TO(d->target, d->tindex);
    VM_NEXT_SEQ();
  }
  VM_CASE(Bne) {
    if (g[d->a] != g[d->b]) VM_NEXT_TO(d->target, d->tindex);
    VM_NEXT_SEQ();
  }
  VM_CASE(Blt) {
    if (static_cast<std::int32_t>(g[d->a]) < static_cast<std::int32_t>(g[d->b]))
      VM_NEXT_TO(d->target, d->tindex);
    VM_NEXT_SEQ();
  }
  VM_CASE(Bge) {
    if (static_cast<std::int32_t>(g[d->a]) >=
        static_cast<std::int32_t>(g[d->b]))
      VM_NEXT_TO(d->target, d->tindex);
    VM_NEXT_SEQ();
  }
  VM_CASE(Bltu) {
    if (g[d->a] < g[d->b]) VM_NEXT_TO(d->target, d->tindex);
    VM_NEXT_SEQ();
  }
  VM_CASE(Bgeu) {
    if (g[d->a] >= g[d->b]) VM_NEXT_TO(d->target, d->tindex);
    VM_NEXT_SEQ();
  }
  VM_CASE(Jmp) { VM_NEXT_TO(d->target, d->tindex); }
  VM_CASE(Jmpr) { VM_NEXT_DYN(g[d->a]); }
  VM_CASE(Call) {
    const Addr a = g[kSp] - 4;
    if (Trap t = fm.store32(a, pc + 4); t != Trap::kNone)
      VM_FAIL(t == Trap::kBadAddress ? Trap::kStackOverflow : t, a);
    g[kSp] = a;
    VM_NEXT_TO(d->target, d->tindex);
  }
  VM_CASE(Callr) {
    const Addr a = g[kSp] - 4;
    if (Trap t = fm.store32(a, pc + 4); t != Trap::kNone)
      VM_FAIL(t == Trap::kBadAddress ? Trap::kStackOverflow : t, a);
    g[kSp] = a;
    VM_NEXT_DYN(g[d->a]);
  }
  VM_CASE(Ret) {
    std::uint32_t v = 0;
    if (Trap t = fm.load32(g[kSp], v); t != Trap::kNone) VM_FAIL(t, g[kSp]);
    VM_READ(g[kSp], 4);
    g[kSp] += 4;
    VM_NEXT_DYN(v);
  }
  VM_CASE(Enter) {
    const Addr a = g[kSp] - 4;
    if (Trap t = fm.store32(a, g[kFp]); t != Trap::kNone)
      VM_FAIL(t == Trap::kBadAddress ? Trap::kStackOverflow : t, a);
    g[kSp] = a;
    g[kFp] = a;
    g[kSp] -= d->imm;
    VM_NEXT_SEQ();
  }
  VM_CASE(Leave) {
    g[kSp] = g[kFp];
    std::uint32_t v = 0;
    if (Trap t = fm.load32(g[kSp], v); t != Trap::kNone) VM_FAIL(t, g[kSp]);
    VM_READ(g[kSp], 4);
    g[kFp] = v;
    g[kSp] += 4;
    VM_NEXT_SEQ();
  }
  VM_CASE(Sys) {
    if (handler_ == nullptr) VM_FAIL(Trap::kBadSyscall, pc);
    // Flush: handlers read pc (still on the SYS word), may charge icount
    // and may peek/poke any architectural state.
    core_.icount += ic;
    core_.regs.pc = pc;
    const std::uint64_t sys_base = core_.icount;
    if constexpr (kRecord) log->now = sys_base;
    const SysResult r = handler_->on_syscall(*this, d->imm);
    switch (r) {
      case SysResult::kDone:
        break;
      case SysResult::kBlock:
        core_.state = RunState::kBlocked;
        return acc + ic - 1;  // PC stays on the SYS instruction
      case SysResult::kExit:
        return acc + ic - 1;  // finish() already called by the handler
      case SysResult::kTrap:
        return acc + ic - 1;  // raise() already called by the handler
    }
    // The SYS op plus whatever it charged counts as executed work.
    acc += ic + (core_.icount - sys_base);
    ic = 0;
    at0 = core_.icount;
    quota = max_instructions > acc ? max_instructions - acc : 0;
    if (core_.state != RunState::kReady) return acc;
    // The handler may have poked memory (message delivery, heap growth
    // bookkeeping, checkpoint restore): pokes land in place, but a text
    // poke or contents restore bumps the code version — re-validate the
    // compiled stream and the segment snapshot. `d` may dangle after
    // refresh_code, so re-resolve pc.
    if (mem_.code_version() != code_version_seen_) code = refresh_code();
    if (!fm.valid(mem_)) fm.refresh(mem_);
    VM_NEXT_DYN(pc + 4);
  }

  // --- x87-style floating point ---
  VM_CASE(Fld) {
    const Addr a = g[d->b] + static_cast<std::uint32_t>(d->simm);
    std::uint64_t bits = 0;
    if (Trap t = fm.load64(a, bits); t != Trap::kNone) VM_FAIL(t, a);
    VM_READ(a, 8);
    f.push(std::bit_cast<double>(bits));
    VM_NEXT_SEQ();
  }
  VM_CASE(Fst) {
    const Addr a = g[d->b] + static_cast<std::uint32_t>(d->simm);
    const double v = f.st(0);
    if (Trap t = fm.store64(a, std::bit_cast<std::uint64_t>(v));
        t != Trap::kNone)
      VM_FAIL(t, a);
    f.pop();
    VM_NEXT_SEQ();
  }
  VM_CASE(Fstnp) {
    const Addr a = g[d->b] + static_cast<std::uint32_t>(d->simm);
    const double v = f.st(0);
    if (Trap t = fm.store64(a, std::bit_cast<std::uint64_t>(v));
        t != Trap::kNone)
      VM_FAIL(t, a);
    VM_NEXT_SEQ();
  }
  VM_CASE(Fldz) {
    f.push(0.0);
    VM_NEXT_SEQ();
  }
  VM_CASE(Fld1) {
    f.push(1.0);
    VM_NEXT_SEQ();
  }
  VM_CASE(Faddp) {
    const double b = f.pop();
    f.set_st(0, f.st(0) + b);
    VM_NEXT_SEQ();
  }
  VM_CASE(Fsubp) {
    const double b = f.pop();
    f.set_st(0, f.st(0) - b);
    VM_NEXT_SEQ();
  }
  VM_CASE(Fmulp) {
    const double b = f.pop();
    f.set_st(0, f.st(0) * b);
    VM_NEXT_SEQ();
  }
  VM_CASE(Fdivp) {
    const double b = f.pop();
    f.set_st(0, f.st(0) / b);  // IEEE: x/0 = inf, 0/0 = NaN, no trap
    VM_NEXT_SEQ();
  }
  VM_CASE(Fchs) {
    f.set_st(0, -f.st(0));
    VM_NEXT_SEQ();
  }
  VM_CASE(Fabs) {
    f.set_st(0, std::fabs(f.st(0)));
    VM_NEXT_SEQ();
  }
  VM_CASE(Fsqrt) {
    f.set_st(0, std::sqrt(f.st(0)));
    VM_NEXT_SEQ();
  }
  VM_CASE(Fsin) {
    f.set_st(0, std::sin(f.st(0)));
    VM_NEXT_SEQ();
  }
  VM_CASE(Fcos) {
    f.set_st(0, std::cos(f.st(0)));
    VM_NEXT_SEQ();
  }
  VM_CASE(Fxch) {
    f.exchange(d->imm & 7);
    VM_NEXT_SEQ();
  }
  VM_CASE(Fdup) {
    f.push(f.st(d->imm & 7));
    VM_NEXT_SEQ();
  }
  VM_CASE(Fcmp) {
    const double a = f.st(0), b = f.st(1);
    std::int32_t r;
    if (a != a || b != b) r = 2;  // unordered
    else if (a < b) r = -1;
    else if (a > b) r = 1;
    else r = 0;
    g[d->a] = static_cast<std::uint32_t>(r);
    VM_NEXT_SEQ();
  }
  VM_CASE(F2i) {
    const double v = f.pop();
    // x86 CVTTSD2SI semantics: out-of-range / NaN -> integer indefinite.
    std::int32_t r;
    if (v != v || v >= 2147483648.0 || v < -2147483648.0)
      r = std::numeric_limits<std::int32_t>::min();
    else
      r = static_cast<std::int32_t>(v);
    g[d->a] = static_cast<std::uint32_t>(r);
    VM_NEXT_SEQ();
  }
  VM_CASE(I2f) {
    f.push(static_cast<double>(static_cast<std::int32_t>(g[d->a])));
    VM_NEXT_SEQ();
  }
  VM_CASE(Fpop) {
    f.pop();
    VM_NEXT_SEQ();
  }

#if defined(FSIM_HAVE_COMPUTED_GOTO)
L_guard:
  --ic;  // a guard slot is not an instruction; re-resolve pc
  goto lookup;
L_bad:
  // The interpreter rejects an invalid word before bumping icount (the
  // validity check precedes the charge there), so an illegal op is neither
  // executed nor counted — undo the dispatch charge before flushing.
  --ic;
  core_.icount += ic;
  core_.regs.pc = pc;
  raise(Trap::kIllegalInstruction, pc);
  return acc + ic;
#else
  default:  // dispatch byte 0: invalid word
    --ic;  // see L_bad above: illegal ops are neither executed nor counted
    core_.icount += ic;
    core_.regs.pc = pc;
    raise(Trap::kIllegalInstruction, pc);
    return acc + ic;
  }  // switch
#endif

#undef VM_READ
#undef VM_NEXT_DYN
#undef VM_NEXT_TO
#undef VM_NEXT_SEQ
#undef VM_DISPATCH
#undef VM_GOTO_OP
#undef VM_CASE
#undef VM_FAIL
}

template std::uint64_t Machine::step_threaded<false>(std::uint64_t);
template std::uint64_t Machine::step_threaded<true>(std::uint64_t);

}  // namespace fsim::svm
