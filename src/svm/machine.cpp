#include "svm/machine.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/status.hpp"

namespace fsim::svm {

namespace {

std::array<std::uint32_t, kNumSegments> image_sizes(const Program& p) {
  std::array<std::uint32_t, kNumSegments> sizes{};
  for (unsigned i = 0; i < kNumSegments; ++i)
    sizes[i] = p.segment_size(static_cast<Segment>(i));
  return sizes;
}

}  // namespace

Machine::Machine(const Program& program, const Config& config, int rank)
    : mem_(image_sizes(program), Memory::Config{}),
      program_(&program),
      rank_(rank),
      engine_(config.engine),
      code_(config.compiled) {
  // Copy the static images in with the privileged interface.
  for (unsigned i = 0; i < kNumSegments; ++i) {
    const Segment seg = static_cast<Segment>(i);
    const auto& img = program.image(seg);
    if (img.empty()) continue;
    FSIM_CHECK(mem_.extent(seg).base == program.segment_base(seg));
    FSIM_CHECK(mem_.poke_span(mem_.extent(seg).base, img));
  }
  // Start at main with the exit sentinel as its return address, the same
  // fiction crt0 provides on a real system.
  core_.regs.pc = program.entry();
  const Addr stack_top = mem_.extent(Segment::kStack).end();
  core_.regs.set_sp(stack_top - 4);
  core_.regs.set_fp(stack_top - 4);
  FSIM_CHECK(mem_.poke32(core_.regs.sp(), kExitSentinel));
  // Text now equals the image any CompiledProgram was lowered from; pokes
  // after this point are what refresh_code() must catch (and what makes
  // snapshots copy text).
  mem_.seal_code(program.image(Segment::kText),
                 program.image(Segment::kLibText));
  code_version_seen_ = mem_.code_version();
}

void Machine::ensure_code() {
  if (cur_code_ != nullptr) return;
  if (!code_) patched_ = std::make_unique<exec::CompiledProgram>(*program_);
  cur_code_ = patched_ ? patched_.get() : code_.get();
}

const exec::CompiledProgram* Machine::refresh_code() {
  ensure_code();
  if (mem_.code_version() != code_version_seen_) {
    if (code_ && mem_.code_pristine()) {
      // A restore put the loaded image back: the shared stream is exact
      // again, as in a new machine.
      patched_.reset();
      cur_code_ = code_.get();
    } else {
      if (!patched_) {
        // First text mutation under a shared stream: take a private copy
        // so the campaign-wide instance stays pristine for sibling machines.
        patched_ = std::make_unique<exec::CompiledProgram>(*code_);
        cur_code_ = patched_.get();
      }
      patched_->repatch(mem_);
    }
    code_version_seen_ = mem_.code_version();
  }
  return cur_code_;
}

std::uint64_t Machine::step(std::uint64_t max_instructions) {
  // The threaded engine has no observer hooks; trace/working-set tools that
  // attach an AccessObserver transparently fall back to the interpreter.
  if (engine_ == exec::EngineKind::kThreaded && mem_.observer() == nullptr)
    return mem_.read_log() != nullptr ? step_threaded<true>(max_instructions)
                                      : step_threaded<false>(max_instructions);
  std::uint64_t executed = 0;
  while (executed < max_instructions && core_.state == RunState::kReady) {
    const std::uint64_t before = core_.icount;
    if (!exec_one()) break;
    // exec_one advances core_.icount by >= 1 (syscalls may charge extra).
    executed += core_.icount - before;
  }
  return executed;
}

bool Machine::exec_one() {
  std::uint32_t word = 0;
  if (core_.regs.pc == kExitSentinel) {
    finish(static_cast<int>(core_.regs.gpr[1]));
    return false;
  }
  // Reads by this instruction, its fetch included, carry its number.
  if (ReadLog* log = mem_.read_log()) log->now = core_.icount + 1;
  if (Trap t = mem_.fetch32(core_.regs.pc, word); t != Trap::kNone) {
    raise(t, core_.regs.pc);
    return false;
  }
  // Decode cache: reuse the pre-lowered op when the fetched word still
  // matches what it was lowered from; a mismatch (injected text flip) takes
  // the one-off slow decode for just that word.
  ensure_code();
  exec::DOp d;
  if (const std::uint32_t idx = cur_code_->index_of(core_.regs.pc);
      idx != exec::CompiledProgram::kNoIndex &&
      cur_code_->ops()[idx].raw == word) {
    d = cur_code_->ops()[idx];
  } else {
    d = exec::lower_op(core_.regs.pc, word);
  }
  if (!d.valid) {
    raise(Trap::kIllegalInstruction, core_.regs.pc);
    return false;
  }

  ++core_.icount;
  auto& g = core_.regs.gpr;
  Fpu& f = core_.regs.fpu;
  std::uint32_t next_pc = core_.regs.pc + 4;

  auto mem_fail = [&](Trap t, Addr a) {
    raise(t, a);
    return false;
  };

  switch (static_cast<Op>(d.op)) {
    case Op::kNop:
      break;
    case Op::kMov:
      g[d.a] = g[d.b];
      break;
    case Op::kLdi:
      g[d.a] = static_cast<std::uint32_t>(d.simm);
      break;
    case Op::kLui:
      g[d.a] = static_cast<std::uint32_t>(d.imm) << 16;
      break;
    case Op::kAdd:
      g[d.a] = g[d.b] + g[d.c];
      break;
    case Op::kSub:
      g[d.a] = g[d.b] - g[d.c];
      break;
    case Op::kMul:
      g[d.a] = g[d.b] * g[d.c];
      break;
    case Op::kDivs: {
      const std::int32_t dv = static_cast<std::int32_t>(g[d.c]);
      if (dv == 0) return mem_fail(Trap::kIntDivideByZero, core_.regs.pc);
      const std::int32_t n = static_cast<std::int32_t>(g[d.b]);
      // INT_MIN / -1 overflows on x86 (SIGFPE); model the same.
      if (n == std::numeric_limits<std::int32_t>::min() && dv == -1)
        return mem_fail(Trap::kIntDivideByZero, core_.regs.pc);
      g[d.a] = static_cast<std::uint32_t>(n / dv);
      break;
    }
    case Op::kRems: {
      const std::int32_t dv = static_cast<std::int32_t>(g[d.c]);
      if (dv == 0) return mem_fail(Trap::kIntDivideByZero, core_.regs.pc);
      const std::int32_t n = static_cast<std::int32_t>(g[d.b]);
      if (n == std::numeric_limits<std::int32_t>::min() && dv == -1)
        return mem_fail(Trap::kIntDivideByZero, core_.regs.pc);
      g[d.a] = static_cast<std::uint32_t>(n % dv);
      break;
    }
    case Op::kAnd:
      g[d.a] = g[d.b] & g[d.c];
      break;
    case Op::kOr:
      g[d.a] = g[d.b] | g[d.c];
      break;
    case Op::kXor:
      g[d.a] = g[d.b] ^ g[d.c];
      break;
    case Op::kShl:
      g[d.a] = g[d.b] << (g[d.c] & 31);
      break;
    case Op::kShr:
      g[d.a] = g[d.b] >> (g[d.c] & 31);
      break;
    case Op::kSra:
      g[d.a] = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(g[d.b]) >> (g[d.c] & 31));
      break;
    case Op::kAddi:
      g[d.a] = g[d.b] + static_cast<std::uint32_t>(d.simm);
      break;
    case Op::kMuli:
      g[d.a] = g[d.b] * static_cast<std::uint32_t>(d.simm);
      break;
    case Op::kAndi:
      g[d.a] = g[d.b] & d.imm;
      break;
    case Op::kOri:
      g[d.a] = g[d.b] | d.imm;
      break;
    case Op::kXori:
      g[d.a] = g[d.b] ^ d.imm;
      break;
    case Op::kShli:
      g[d.a] = g[d.b] << (d.imm & 31);
      break;
    case Op::kShri:
      g[d.a] = g[d.b] >> (d.imm & 31);
      break;
    case Op::kSrai:
      g[d.a] = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(g[d.b]) >> (d.imm & 31));
      break;
    case Op::kSlt:
      g[d.a] = static_cast<std::int32_t>(g[d.b]) <
                       static_cast<std::int32_t>(g[d.c])
                   ? 1
                   : 0;
      break;
    case Op::kSltu:
      g[d.a] = g[d.b] < g[d.c] ? 1 : 0;
      break;
    case Op::kLdw: {
      const Addr a = g[d.b] + static_cast<std::uint32_t>(d.simm);
      std::uint32_t v = 0;
      if (Trap t = mem_.load32(a, v); t != Trap::kNone) return mem_fail(t, a);
      g[d.a] = v;
      break;
    }
    case Op::kStw: {
      const Addr a = g[d.b] + static_cast<std::uint32_t>(d.simm);
      if (Trap t = mem_.store32(a, g[d.a]); t != Trap::kNone)
        return mem_fail(t, a);
      break;
    }
    case Op::kLdb: {
      const Addr a = g[d.b] + static_cast<std::uint32_t>(d.simm);
      std::uint8_t v = 0;
      if (Trap t = mem_.load8(a, v); t != Trap::kNone) return mem_fail(t, a);
      g[d.a] = v;
      break;
    }
    case Op::kStb: {
      const Addr a = g[d.b] + static_cast<std::uint32_t>(d.simm);
      if (Trap t = mem_.store8(a, static_cast<std::uint8_t>(g[d.a]));
          t != Trap::kNone)
        return mem_fail(t, a);
      break;
    }
    case Op::kPush: {
      const Addr a = g[kSp] - 4;
      if (Trap t = mem_.store32(a, g[d.a]); t != Trap::kNone)
        return mem_fail(t == Trap::kBadAddress ? Trap::kStackOverflow : t, a);
      g[kSp] = a;
      break;
    }
    case Op::kPop: {
      std::uint32_t v = 0;
      if (Trap t = mem_.load32(g[kSp], v); t != Trap::kNone)
        return mem_fail(t, g[kSp]);
      g[d.a] = v;
      g[kSp] += 4;
      break;
    }
    case Op::kBeq:
      if (g[d.a] == g[d.b]) next_pc = d.target;
      break;
    case Op::kBne:
      if (g[d.a] != g[d.b]) next_pc = d.target;
      break;
    case Op::kBlt:
      if (static_cast<std::int32_t>(g[d.a]) <
          static_cast<std::int32_t>(g[d.b]))
        next_pc = d.target;
      break;
    case Op::kBge:
      if (static_cast<std::int32_t>(g[d.a]) >=
          static_cast<std::int32_t>(g[d.b]))
        next_pc = d.target;
      break;
    case Op::kBltu:
      if (g[d.a] < g[d.b]) next_pc = d.target;
      break;
    case Op::kBgeu:
      if (g[d.a] >= g[d.b]) next_pc = d.target;
      break;
    case Op::kJmp:
      next_pc = d.target;
      break;
    case Op::kJmpr:
      next_pc = g[d.a];
      break;
    case Op::kCall: {
      const Addr a = g[kSp] - 4;
      if (Trap t = mem_.store32(a, core_.regs.pc + 4); t != Trap::kNone)
        return mem_fail(t == Trap::kBadAddress ? Trap::kStackOverflow : t, a);
      g[kSp] = a;
      next_pc = d.target;
      break;
    }
    case Op::kCallr: {
      const Addr a = g[kSp] - 4;
      if (Trap t = mem_.store32(a, core_.regs.pc + 4); t != Trap::kNone)
        return mem_fail(t == Trap::kBadAddress ? Trap::kStackOverflow : t, a);
      g[kSp] = a;
      next_pc = g[d.a];
      break;
    }
    case Op::kRet: {
      std::uint32_t v = 0;
      if (Trap t = mem_.load32(g[kSp], v); t != Trap::kNone)
        return mem_fail(t, g[kSp]);
      g[kSp] += 4;
      next_pc = v;
      break;
    }
    case Op::kEnter: {
      const Addr a = g[kSp] - 4;
      if (Trap t = mem_.store32(a, g[kFp]); t != Trap::kNone)
        return mem_fail(t == Trap::kBadAddress ? Trap::kStackOverflow : t, a);
      g[kSp] = a;
      g[kFp] = a;
      g[kSp] -= d.imm;
      break;
    }
    case Op::kLeave: {
      g[kSp] = g[kFp];
      std::uint32_t v = 0;
      if (Trap t = mem_.load32(g[kSp], v); t != Trap::kNone)
        return mem_fail(t, g[kSp]);
      g[kFp] = v;
      g[kSp] += 4;
      break;
    }
    case Op::kSys: {
      if (handler_ == nullptr)
        return mem_fail(Trap::kBadSyscall, core_.regs.pc);
      const SysResult r = handler_->on_syscall(*this, d.imm);
      switch (r) {
        case SysResult::kDone:
          break;
        case SysResult::kBlock:
          core_.state = RunState::kBlocked;
          return false;  // PC stays on the SYS instruction
        case SysResult::kExit:
          return false;  // finish() already called by the handler
        case SysResult::kTrap:
          return false;  // raise() already called by the handler
      }
      break;
    }

    // --- x87-style floating point ---
    case Op::kFld: {
      const Addr a = g[d.b] + static_cast<std::uint32_t>(d.simm);
      std::uint64_t bits = 0;
      if (Trap t = mem_.load64(a, bits); t != Trap::kNone)
        return mem_fail(t, a);
      f.push(std::bit_cast<double>(bits));
      break;
    }
    case Op::kFst: {
      const Addr a = g[d.b] + static_cast<std::uint32_t>(d.simm);
      const double v = f.st(0);
      if (Trap t = mem_.store64(a, std::bit_cast<std::uint64_t>(v));
          t != Trap::kNone)
        return mem_fail(t, a);
      f.pop();
      break;
    }
    case Op::kFstnp: {
      const Addr a = g[d.b] + static_cast<std::uint32_t>(d.simm);
      const double v = f.st(0);
      if (Trap t = mem_.store64(a, std::bit_cast<std::uint64_t>(v));
          t != Trap::kNone)
        return mem_fail(t, a);
      break;
    }
    case Op::kFldz:
      f.push(0.0);
      break;
    case Op::kFld1:
      f.push(1.0);
      break;
    case Op::kFaddp: {
      const double b = f.pop();
      f.set_st(0, f.st(0) + b);
      break;
    }
    case Op::kFsubp: {
      const double b = f.pop();
      f.set_st(0, f.st(0) - b);
      break;
    }
    case Op::kFmulp: {
      const double b = f.pop();
      f.set_st(0, f.st(0) * b);
      break;
    }
    case Op::kFdivp: {
      const double b = f.pop();
      f.set_st(0, f.st(0) / b);  // IEEE: x/0 = inf, 0/0 = NaN, no trap
      break;
    }
    case Op::kFchs:
      f.set_st(0, -f.st(0));
      break;
    case Op::kFabs:
      f.set_st(0, std::fabs(f.st(0)));
      break;
    case Op::kFsqrt:
      f.set_st(0, std::sqrt(f.st(0)));
      break;
    case Op::kFsin:
      f.set_st(0, std::sin(f.st(0)));
      break;
    case Op::kFcos:
      f.set_st(0, std::cos(f.st(0)));
      break;
    case Op::kFxch:
      f.exchange(d.imm & 7);
      break;
    case Op::kFdup:
      f.push(f.st(d.imm & 7));
      break;
    case Op::kFcmp: {
      const double a = f.st(0), b = f.st(1);
      std::int32_t r;
      if (a != a || b != b) r = 2;           // unordered
      else if (a < b) r = -1;
      else if (a > b) r = 1;
      else r = 0;
      g[d.a] = static_cast<std::uint32_t>(r);
      break;
    }
    case Op::kF2i: {
      const double v = f.pop();
      // x86 CVTTSD2SI semantics: out-of-range / NaN -> integer indefinite.
      std::int32_t r;
      if (v != v || v >= 2147483648.0 || v < -2147483648.0)
        r = std::numeric_limits<std::int32_t>::min();
      else
        r = static_cast<std::int32_t>(v);
      g[d.a] = static_cast<std::uint32_t>(r);
      break;
    }
    case Op::kI2f:
      f.push(static_cast<double>(static_cast<std::int32_t>(g[d.a])));
      break;
    case Op::kFpop:
      f.pop();
      break;
  }

  core_.regs.pc = next_pc;
  return true;
}

}  // namespace fsim::svm
