// Elastic multi-tenant scheduler (the daemon's brain, socket-free).
//
// Work is assigned in *chunks*: disjoint GridSelections carved off a job's
// remaining grid with take_front. Chunking is what makes the fleet
// elastic — a joining worker immediately gets the next chunk, and a dead
// worker forfeits at most one chunk, whose unfinished points return to the
// job's pending selection (minus whatever its reclaimed sidecar already
// completed). Fairness is round-robin over tenants at chunk granularity:
// each assignment goes to the next tenant (in first-submission order) that
// has runnable work, so one tenant's huge campaign cannot starve another's
// (docs/SERVICE.md).
//
// Every mutation is persisted through the JobStore before it is
// acknowledged, so the scheduler itself holds no state a restart cannot
// rebuild.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "service/queue.hpp"

namespace fsim::service {

class Scheduler {
 public:
  /// `chunk` = grid points per assignment; 0 picks one automatically
  /// (remaining / (2 * workers), clamped to >= 8) so every worker gets ~2
  /// chunks of the current remainder and re-sharding stays fine-grained
  /// near the end of a campaign.
  Scheduler(JobStore& store, std::uint64_t chunk,
            core::CheckpointEncoding encoding);

  /// A worker connection is live (id is the daemon's connection id).
  /// Throws SetupError when `worker` has already joined, leaving its slot
  /// and any assignment in flight as they were (the daemon drops such a
  /// connection, and worker_lost reclaims the assignment).
  void worker_joined(int worker);
  /// A worker died or left: reclaim its outstanding assignment — fold
  /// whatever its checkpoint sidecar recorded, re-queue the rest. Returns
  /// the ids of jobs finished by the reclaimed partial work.
  std::vector<std::string> worker_lost(int worker);

  /// Next assignment for an idle worker (round-robin over tenants), or
  /// nullopt when no job has pending work.
  std::optional<Assignment> next_assignment(int worker);

  /// A worker reported its assignment finished: fold the sidecar into the
  /// job's master and persist. Returns the job id when this completed the
  /// whole job. Throws SetupError on an unknown/mismatched task or a
  /// missing sidecar (the daemon drops such a worker).
  std::optional<std::string> task_done(int worker, const std::string& job_id,
                                       int task);

  /// Jobs whose grid is already fully covered but that were never
  /// finalized (crash recovery); finalizes them and returns their ids.
  std::vector<std::string> finalize_idle_jobs();

  /// Workers currently registered.
  std::size_t workers() const noexcept { return outstanding_.size(); }

 private:
  struct Outstanding {
    std::string job_id;
    int task = 0;
    core::GridSelection selection;
    bool busy = false;  // an assignment is in flight
  };

  Job* runnable_for_tenant(const std::string& tenant);
  void finish_if_complete(Job& job, std::vector<std::string>& finished);

  JobStore& store_;
  std::uint64_t chunk_;
  core::CheckpointEncoding encoding_;
  std::map<int, Outstanding> outstanding_;  // one slot per live worker
  std::vector<std::string> tenants_;        // first-submission order
  std::size_t tenant_cursor_ = 0;
};

}  // namespace fsim::service
