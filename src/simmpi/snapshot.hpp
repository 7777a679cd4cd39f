// Whole-job checkpoint/restart.
//
// The paper's conclusion calls for "a serious effort to redesign or enhance
// parallel applications and communication libraries with a renewed emphasis
// on fault tolerance". Checkpoint/restart is the baseline technique that
// motivation implies: snapshot the entire job (every rank's registers,
// address space, heap metadata, MPI library state, and in-flight packets),
// and after a fault kills the job, resume from the last snapshot instead of
// from the beginning.
//
// A Snapshot is a value: copying the World's complete state is legitimate
// here because the simulation owns everything (no external descriptors).
// It costs what the job touched: each segment contributes only its backed
// window (svm/memory.hpp), and text that still equals the loaded image is
// not copied at all. Restoring rewinds a *compatible* World (same program,
// same options) to the captured point, rewriting text — and invalidating
// compiled code — only where it actually differs; determinism then
// guarantees the re-execution is exact. The golden run keeps a ladder of
// these to fast-forward injected runs, and an injected run that matches a
// later rung has rejoined the golden run (core/run.hpp).
//
// Rejoining asks for less than equality: only that every later read return
// what it returns in the golden run. Say that at a rung's count every
// register, every FPU field an instruction reads (svm::Fpu::
// observably_equal), the MPI, channel, heap and IO state, the text, and
// every memory granule the golden run reads after the rung (its read
// oracle, svm/readlog.hpp) equal the rung's. The golden run from the rung
// reads only those, so the first instruction after the rung reads, and so
// computes and writes, exactly what it does in the golden run. By
// induction every later one does too: state written from then on is the
// golden run's, and state never written again is read only where it
// already agrees. So the run is the golden run from the rung on, output
// and end state included; the differences left are never observed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "svm/readlog.hpp"

namespace fsim::simmpi {

class World;

class Snapshot {
 public:
  Snapshot();
  ~Snapshot();
  Snapshot(Snapshot&&) noexcept;
  Snapshot& operator=(Snapshot&&) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// Capture the complete state of a running (or finished) job.
  static Snapshot capture(const World& world);

  /// Capture `world` into this snapshot in place, replacing what it held.
  /// The memory contents go into the mapping the last capture made when
  /// they fit, so a snapshot recaptured again and again (an injected
  /// walk's boundary, core/run.hpp) maps and faults in its pages once.
  void recapture(const World& world);

  /// Rewind `world` to this snapshot. The world must have been created from
  /// the same program with the same options (rank count is verified).
  void restore(World& world) const;

  /// Does `world` (a compatible one) run on exactly as a world restored
  /// from here would? Compares every part capture() takes; memory by what
  /// each address reads (windows may differ), and a message fault that has
  /// fired as no fault at all. kExact when every part is equal; kObservable
  /// when the differences lie only in FPU state no instruction reads or,
  /// given the golden read oracle (one log per rank, recorded by the run
  /// this snapshot comes from), in granules it never reads after here.
  /// Without an oracle memory compares strictly.
  svm::Match matches(const World& world,
                     const std::vector<svm::ReadLog>* oracle = nullptr) const;

  /// Global instruction count at capture time.
  std::uint64_t instructions() const noexcept;

  /// Cumulative bytes rank `rank` had received at capture time.
  std::uint64_t received_bytes(int rank) const;

  /// Serialised size in bytes (for checkpoint-cost accounting).
  std::uint64_t size_bytes() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fsim::simmpi
