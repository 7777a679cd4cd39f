// Internal to src/core: the execution path run_batch and run_adaptive
// share.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/campaign.hpp"

namespace fsim::core {

class CheckpointSink;  // core/checkpoint.hpp

/// The one execution path behind run_batch and run_adaptive, on a borrowed
/// session. Construction repeats validate(), refuses a resume checkpoint of
/// another batch or kind, seeds the counts from it, installs the
/// checkpoint sink and the observer fan-in, and then runs what the
/// invocation owes: `exec.selection` when given, else the resume
/// baseline's remaining_selection — a fixed-n shard's whole job, or the
/// wave a crash interrupted. The adaptive scheduler adds only its wave
/// loop (run, commit_cell). `session` and `exec` are borrowed and must
/// outlive the run; the session's pool, not `exec.jobs`, sets the thread
/// count. Runs on one session follow each other, never overlap.
class BatchRun {
 public:
  /// Every check that needs no prepared campaign: the shard, an adaptive
  /// policy, and that a selection runs alone and never in waves. Callers
  /// that build the session make it first, so bad input is refused before
  /// any campaign is prepared.
  static void validate(const ExecPolicy& exec,
                       const std::optional<AdaptivePolicy>& adaptive);

  BatchRun(BatchSession& session, const ExecPolicy& exec,
           const std::optional<AdaptivePolicy>& adaptive);
  ~BatchRun();

  BatchRun(const BatchRun&) = delete;
  BatchRun& operator=(const BatchRun&) = delete;

  /// Run `selection` through the session's walks (BatchSession::
  /// run_points); each slot's progress
  /// denominator grows by its selected points. Throws SetupError on a
  /// selection of another slot layout or with indices outside the grid.
  void run(const GridSelection& selection);
  /// Record an adaptive cell's frontier and stop flag in the sidecar.
  void commit_cell(std::size_t slot, int frontier, bool stopped);

  /// Cumulative per-slot counts, resume baseline included.
  const std::vector<RegionResult>& totals() const noexcept { return totals_; }

  /// Write the final checkpoint and return the batch's counts.
  BatchResult finish();

 private:
  const ExecPolicy& exec_;
  const bool adaptive_;
  BatchSession& session_;
  std::vector<RegionResult> totals_;
  std::vector<int> done_, owned_;  // owned_: RunEvent denominators
  std::unique_ptr<CheckpointSink> sink_;
  BatchSession::Notify notify_;
};

}  // namespace fsim::core
