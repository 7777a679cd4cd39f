// The Machine: one simulated MPI process — register file, address space and
// interpreter.
//
// The campaign driver steps machines in instruction quanta; between quanta
// the injector may peek/poke any architectural state, which is the moral
// equivalent of the paper's ptrace()-based stop-modify-resume loop (§3.1).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "svm/exec/compiled.hpp"
#include "svm/exec/engine.hpp"
#include "svm/exec/fastmem.hpp"
#include "svm/isa.hpp"
#include "svm/layout.hpp"
#include "svm/memory.hpp"
#include "svm/program.hpp"
#include "svm/regfile.hpp"
#include "svm/syscall.hpp"
#include "svm/trap.hpp"

namespace fsim::svm {

enum class RunState : std::uint8_t {
  kReady,    // runnable
  kBlocked,  // parked on a blocking syscall (MPI recv/barrier/...)
  kExited,   // finished, exit_code() valid
  kTrapped,  // crashed, trap() valid
};

/// How an exited process ended; distinguishes the abort flavours the
/// classifier needs (§5.1).
enum class ExitKind : std::uint8_t {
  kNormal,       // returned from main / SYS exit
  kAppAbort,     // application assertion or consistency check fired
  kMpiFatal,     // MPI library aborted the job (MPICH-style fatal error)
  kMpiHandler,   // user-registered MPI error handler was invoked
};

class Machine {
 public:
  struct Config {
    /// Which execution engine runs this machine's instructions. Both are
    /// bit-identical at quantum boundaries; threaded is the fast default.
    exec::EngineKind engine = exec::EngineKind::kThreaded;
    /// Optional pre-lowered instruction stream shared across machines (the
    /// campaign driver lowers once per batch entry). When absent the machine
    /// lazily lowers its own copy on first step.
    std::shared_ptr<const exec::CompiledProgram> compiled;
  };

  Machine(const Program& program, const Config& config, int rank = 0);

  // --- Execution ---

  /// Run up to `max_instructions`; returns the number actually executed.
  /// Stops early on block, exit or trap (see state()).
  std::uint64_t step(std::uint64_t max_instructions);

  /// Unblock a machine parked on a syscall (the syscall will re-execute).
  void wake() {
    if (core_.state == RunState::kBlocked) core_.state = RunState::kReady;
  }

  RunState state() const noexcept { return core_.state; }
  Trap trap() const noexcept { return core_.trap; }
  std::uint32_t fault_addr() const noexcept { return core_.fault_addr; }
  int exit_code() const noexcept { return core_.exit_code; }
  ExitKind exit_kind() const noexcept { return core_.exit_kind; }
  std::uint64_t instructions() const noexcept { return core_.icount; }
  int rank() const noexcept { return rank_; }
  exec::EngineKind engine() const noexcept { return engine_; }

  // --- Architectural state (fault-injection surface) ---
  RegFile& regs() noexcept { return core_.regs; }
  const RegFile& regs() const noexcept { return core_.regs; }
  Memory& memory() noexcept { return mem_; }
  const Memory& memory() const noexcept { return mem_; }
  const Program& program() const noexcept { return *program_; }

  // --- Used by syscall handlers ---
  void set_handler(SyscallHandler* h) noexcept { handler_ = h; }
  std::uint32_t arg(unsigned i) const noexcept { return core_.regs.gpr[1 + i]; }
  void set_result(std::uint32_t v) noexcept { core_.regs.gpr[1] = v; }
  void finish(int code, ExitKind kind = ExitKind::kNormal) noexcept {
    core_.exit_code = code;
    core_.exit_kind = kind;
    core_.state = RunState::kExited;
  }
  void raise(Trap t, Addr addr = 0) noexcept {
    core_.trap = t;
    core_.fault_addr = addr;
    core_.state = RunState::kTrapped;
  }
  /// Charge extra simulated cycles (e.g. checksum syscalls cost ~len/8).
  void charge(std::uint64_t cycles) noexcept { core_.icount += cycles; }

  // --- Checkpoint/restart support: the architectural state, one value ---
  struct CoreState {
    RegFile regs;
    RunState state = RunState::kReady;
    Trap trap = Trap::kNone;
    Addr fault_addr = 0;
    int exit_code = 0;
    ExitKind exit_kind = ExitKind::kNormal;
    std::uint64_t icount = 0;
    bool operator==(const CoreState&) const = default;
    /// kObservable when the two differ only in FPU state no instruction
    /// reads (Fpu::observably_equal).
    Match compare(const CoreState& o) const noexcept {
      if (regs.fpu == o.regs.fpu)
        return *this == o ? Match::kExact : Match::kDiffers;
      if (!regs.fpu.observably_equal(o.regs.fpu)) return Match::kDiffers;
      CoreState same_fpu = o;
      same_fpu.regs.fpu = regs.fpu;
      return *this == same_fpu ? Match::kObservable : Match::kDiffers;
    }
  };
  const CoreState& core_state() const noexcept { return core_; }
  void restore_core_state(const CoreState& s) { core_ = s; }

 private:
  bool exec_one();  // returns false when execution must stop
  /// exec/threaded.cpp. The recording variant also stamps every fetch and
  /// load into the memory's read log (svm/readlog.hpp).
  template <bool kRecord>
  std::uint64_t step_threaded(std::uint64_t max_instructions);

  /// Lazily bind the pre-decoded stream (shared copy, or lower our own).
  void ensure_code();
  /// ensure_code() plus re-lowering of blocks whose text bytes changed since
  /// the stream was last patched (threaded engine; the interpreter instead
  /// verifies the raw word per instruction and never needs a private copy).
  const exec::CompiledProgram* refresh_code();

  Memory mem_;
  CoreState core_;
  const Program* program_;
  SyscallHandler* handler_ = nullptr;
  int rank_ = 0;

  // --- Execution-engine state ---
  exec::EngineKind engine_ = exec::EngineKind::kThreaded;
  std::shared_ptr<const exec::CompiledProgram> code_;  // shared, immutable
  std::unique_ptr<exec::CompiledProgram> patched_;     // machine-private copy
  const exec::CompiledProgram* cur_code_ = nullptr;    // effective stream
  std::uint64_t code_version_seen_ = 0;
  exec::FastMem fastmem_;  // threaded engine's segment snapshot (lazy)
};

}  // namespace fsim::svm
