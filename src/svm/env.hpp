// BasicEnv: host services for a single simulated process.
//
// Implements the non-MPI syscalls — console and output-file emission, the
// tagged heap, the instruction clock, application aborts, checksums and a
// deterministic per-process PRNG. simmpi::Process derives from this and adds
// the MPI family.
//
// Console vs output distinction matters for classification (§5.1): "Crash"
// and "Application/MPI Detected" are identified from console (STDERR/STDOUT)
// markers, while "Incorrect output" is decided by comparing the output file
// against a fault-free reference.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "svm/heap.hpp"
#include "svm/machine.hpp"
#include "svm/syscall.hpp"
#include "util/rng.hpp"

namespace fsim::svm {

class BasicEnv : public SyscallHandler {
 public:
  /// `rand_seed` seeds the kRand stream (deterministic per process).
  explicit BasicEnv(Machine& machine, std::uint64_t rand_seed = 1);

  SysResult on_syscall(Machine& m, std::uint16_t number) override;

  const std::string& console() const noexcept { return io_.console; }
  const std::string& output() const noexcept { return io_.output; }
  Heap& heap() noexcept { return heap_; }
  const Heap& heap() const noexcept { return heap_; }

  void append_console(const std::string& text) { io_.console += text; }

  // --- Checkpoint/restart support: the process's I/O and PRNG, one value ---
  struct IoState {
    std::string console;
    std::string output;
    util::Rng rand;
    bool operator==(const IoState&) const = default;
  };
  const IoState& io_state() const noexcept { return io_; }
  void restore_io_state(const IoState& s) { io_ = s; }

 protected:
  /// Hook for the MPI syscall family (numbers >= 32). The base class raises
  /// SIGSYS; simmpi::Process overrides.
  virtual SysResult on_mpi_syscall(Machine& m, Sys number);

  /// Format a double with `digits` significant decimal digits, the printf
  /// "%.Ng" presentation the plain-text output files use (§6.2: this low
  /// precision can hide small perturbations).
  static std::string format_f64(double v, unsigned digits);

 private:
  SysResult read_f64(Machine& m, Addr addr, double& out);

  Heap heap_;
  IoState io_;
};

/// Fletcher-style 32-bit checksum over simulated memory; also the costing
/// used for the kChecksum syscall (~1 cycle per 8 bytes, giving NAMD-like
/// "three percent overhead" at realistic message rates).
std::uint32_t checksum_bytes(const Memory& mem, Addr addr, std::uint32_t len,
                             bool& ok);

}  // namespace fsim::svm
