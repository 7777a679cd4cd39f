#include "simmpi/world.hpp"

#include <sstream>

#include "util/status.hpp"

namespace fsim::simmpi {

World::World(const svm::Program& program, const WorldOptions& options)
    : options_(options) {
  state_.jitter_rng = util::Rng(options.seed);
  FSIM_CHECK(options.nranks >= 1);
  machines_.reserve(static_cast<std::size_t>(options.nranks));
  processes_.reserve(static_cast<std::size_t>(options.nranks));
  for (int r = 0; r < options.nranks; ++r) {
    machines_.push_back(
        std::make_unique<svm::Machine>(program, options.machine, r));
    processes_.push_back(std::make_unique<Process>(
        *this, *machines_.back(), r,
        util::hash_seed({options.seed, 0x72616e64, static_cast<std::uint64_t>(r)})));
  }
}

World::~World() = default;

std::uint64_t World::global_instructions() const {
  std::uint64_t total = 0;
  for (const auto& m : machines_) total += m->instructions();
  return total;
}

void World::post_fatal(int rank, const std::string& msg) {
  if (state_.status == JobStatus::kRunning) {
    state_.status = JobStatus::kMpiFatal;
    state_.failed_rank = rank;
    state_.failure_msg = msg;
  }
}

JobStatus World::advance() {
  if (state_.status != JobStatus::kRunning) return state_.status;

  for (auto& m : machines_) {
    if (m->state() != svm::RunState::kReady) continue;
    const std::uint64_t quantum =
        options_.quantum +
        (options_.quantum_jitter > 0
             ? state_.jitter_rng.below(options_.quantum_jitter + 1)
             : 0);
    m->step(quantum);
    // A fatal MPI error during the step ends the job at once.
    if (state_.status != JobStatus::kRunning) return state_.status;
  }

  // Job-level outcome checks (MPI 1.1: one task failing kills the job).
  bool all_exited = true;
  for (std::size_t r = 0; r < machines_.size(); ++r) {
    auto& m = *machines_[r];
    switch (m.state()) {
      case svm::RunState::kTrapped:
        state_.status = JobStatus::kCrashed;
        state_.failed_rank = static_cast<int>(r);
        state_.crash_trap = m.trap();
        state_.failure_msg = std::string("rank ") + std::to_string(r) +
                       " received signal " + svm::trap_name(m.trap());
        processes_[r]->append_console("MPICH: process terminated by " +
                                      std::string(svm::trap_name(m.trap())) +
                                      "\n");
        return state_.status;
      case svm::RunState::kExited:
        switch (m.exit_kind()) {
          case svm::ExitKind::kAppAbort:
            state_.status = JobStatus::kAppAborted;
            state_.failed_rank = static_cast<int>(r);
            return state_.status;
          case svm::ExitKind::kMpiFatal:
            state_.status = JobStatus::kMpiFatal;
            state_.failed_rank = static_cast<int>(r);
            return state_.status;
          case svm::ExitKind::kMpiHandler:
            state_.status = JobStatus::kMpiHandler;
            state_.failed_rank = static_cast<int>(r);
            return state_.status;
          case svm::ExitKind::kNormal:
            break;
        }
        break;
      default:
        all_exited = false;
        break;
    }
  }
  if (all_exited) {
    state_.status = JobStatus::kCompleted;
    return state_.status;
  }

  // Deadlock detection: once every rank is parked on a blocking syscall (or
  // exited), state can only change if some retry makes progress — drains a
  // packet, completes an operation. A few consecutive rounds of parked
  // ranks with zero progress means the job is wedged. Compute-bound ranks
  // (e.g. corrupted into an infinite loop) stay kReady and are instead
  // bounded by the caller's instruction budget.
  bool any_progress = false;
  for (auto& p : processes_)
    if (p->take_progress()) any_progress = true;
  bool all_parked = true;
  for (auto& m : machines_)
    if (m->state() == svm::RunState::kReady) all_parked = false;
  if (all_parked && !any_progress) {
    if (options_.deadlock_rounds > 0 &&
        ++state_.stall_rounds >= options_.deadlock_rounds) {
      state_.status = JobStatus::kDeadlocked;
      return state_.status;
    }
  } else {
    state_.stall_rounds = 0;
  }

  // Wake every blocked rank so its syscall retries next round.
  for (auto& m : machines_) m->wake();
  return state_.status;
}

JobStatus World::run(std::uint64_t budget) {
  while (state_.status == JobStatus::kRunning && global_instructions() < budget)
    advance();
  return state_.status;
}

std::string World::console() const {
  std::ostringstream os;
  for (std::size_t r = 0; r < processes_.size(); ++r) {
    const std::string& text = processes_[r]->console();
    if (text.empty()) continue;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line))
      os << "[rank " << r << "] " << line << '\n';
  }
  return os.str();
}

}  // namespace fsim::simmpi
