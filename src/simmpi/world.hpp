// World: the job — N ranks, a deterministic cooperative scheduler, and the
// job-level failure semantics of MPI 1.1 (one task dying terminates the
// whole application, paper §1).
//
// The scheduler steps each ready rank for an instruction quantum per round.
// An optional seeded jitter varies the quantum, permuting message arrival
// orders between seeds — the mechanism we use to model NAMD's
// nondeterministic execution (§4.2.2) while keeping every individual run
// exactly replayable from its seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simmpi/process.hpp"
#include "svm/machine.hpp"
#include "svm/program.hpp"
#include "util/rng.hpp"

namespace fsim::simmpi {

struct WorldOptions {
  int nranks = 4;
  svm::Machine::Config machine;
  std::uint64_t quantum = 128;        // instructions per rank per round
  std::uint64_t quantum_jitter = 0;   // extra 0..jitter instructions (seeded)
  std::uint64_t seed = 1;             // scheduler jitter + per-rank PRNG seeds
  std::uint32_t eager_threshold = 4096;  // bytes; larger sends use rendezvous
  /// Consecutive no-progress rounds before the scheduler declares deadlock.
  /// 0 disables the detector — real MPICH offers no such luxury, and the
  /// §7 progress-metric analysis runs with it off to model that reality.
  /// (Campaigns keep it on purely as a speed optimisation; the outcome is
  /// classified as a Hang either way.)
  int deadlock_rounds = 3;
};

enum class JobStatus : std::uint8_t {
  kRunning,
  kCompleted,        // every rank exited normally
  kCrashed,          // a rank trapped (SIGSEGV/SIGILL/... — MPICH aborts all)
  kMpiFatal,         // the MPI library aborted the job (also a Crash, §5.1)
  kAppAborted,       // an application consistency check fired (App Detected)
  kMpiHandler,       // the user-registered MPI error handler ran (MPI Detected)
  kDeadlocked,       // no rank can make progress (manifest as Hang)
};

class World {
 public:
  World(const svm::Program& program, const WorldOptions& options);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// One scheduler round. Returns the (possibly new) job status.
  JobStatus advance();

  /// Run until the job ends or the global instruction count exceeds
  /// `budget`. Returns the final status (kRunning when the budget ran out —
  /// the caller classifies that as a hang).
  JobStatus run(std::uint64_t budget);

  JobStatus status() const noexcept { return state_.status; }
  std::uint64_t global_instructions() const;

  int size() const noexcept { return static_cast<int>(processes_.size()); }
  Process& process(int rank) { return *processes_[static_cast<std::size_t>(rank)]; }
  svm::Machine& machine(int rank) { return *machines_[static_cast<std::size_t>(rank)]; }
  std::uint32_t eager_threshold() const noexcept { return options_.eager_threshold; }

  /// Merged console (every rank, line-prefixed) — the STDOUT/STDERR the
  /// classifier greps for crash/detection markers.
  std::string console() const;

  /// The application's result file: rank 0's output stream (§4.2.1: rank 0
  /// writes the output at the end of the run).
  const std::string& output() const { return processes_[0]->output(); }

  /// Crash diagnostics, valid when status is kCrashed / kMpiFatal.
  int failed_rank() const noexcept { return state_.failed_rank; }
  svm::Trap crash_trap() const noexcept { return state_.crash_trap; }
  const std::string& failure_message() const noexcept {
    return state_.failure_msg;
  }

  // --- Called by Process ---
  void enqueue_to(int dest, std::vector<std::byte> packet) {
    processes_[static_cast<std::size_t>(dest)]->channel().enqueue(
        std::move(packet));
  }
  /// A rank hit an unrecoverable MPI-library error: the job dies.
  void post_fatal(int rank, const std::string& msg);

  // --- Checkpoint/restart support: the job-level state, one value ---
  struct State {
    JobStatus status = JobStatus::kRunning;
    int failed_rank = -1;
    svm::Trap crash_trap = svm::Trap::kNone;
    std::string failure_msg;
    int stall_rounds = 0;
    util::Rng jitter_rng;
    bool operator==(const State&) const = default;
  };
  const State& snapshot_state() const noexcept { return state_; }
  void restore_state(const State& s) { state_ = s; }

 private:
  WorldOptions options_;
  std::vector<std::unique_ptr<svm::Machine>> machines_;
  std::vector<std::unique_ptr<Process>> processes_;
  State state_;
};

}  // namespace fsim::simmpi
