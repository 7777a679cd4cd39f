#include "service/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/reshard.hpp"
#include "util/file.hpp"
#include "util/status.hpp"

namespace fsim::service {

Scheduler::Scheduler(JobStore& store, std::uint64_t chunk,
                     core::CheckpointEncoding encoding)
    : store_(store), chunk_(chunk), encoding_(encoding) {}

void Scheduler::worker_joined(int worker) {
  // Overwriting a busy slot would strand its assignment: the job would
  // count it as outstanding forever.
  if (!outstanding_.emplace(worker, Outstanding{}).second)
    throw util::SetupError("worker " + std::to_string(worker) +
                           " has already joined");
  std::fprintf(stderr, "fsim serve: worker %d joined (%zu active)\n", worker,
               outstanding_.size());
}

std::vector<std::string> Scheduler::worker_lost(int worker) {
  std::vector<std::string> finished;
  const auto it = outstanding_.find(worker);
  if (it == outstanding_.end()) return finished;
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  std::fprintf(stderr, "fsim serve: worker %d lost (%zu active)\n", worker,
               outstanding_.size());
  if (!out.busy) return finished;

  Job* job = store_.find(out.job_id);
  if (!job) return finished;
  job->outstanding -= out.selection.total();

  // Reclaim the dead worker's sidecar: its atomic checkpoint writes mean
  // the file — if present — is a valid prefix of the assignment. Fold
  // whatever it covered; everything else goes back to the pending pool.
  try {
    core::fold_checkpoint(
        job->master,
        core::parse_checkpoint_json(
            util::read_file(store_.sidecar_path(*job, out.task))));
    store_.persist_master(*job);
  } catch (const util::SetupError&) {
    // No sidecar yet (death before the first write), a torn tail, or an
    // already-folded file: the master stands and the selection re-runs.
  }
  std::uint64_t requeued = 0;
  for (std::size_t s = 0; s < out.selection.slots.size(); ++s) {
    for (const auto& [first, last] : out.selection.slots[s].ranges())
      for (int i = first; i <= last; ++i)
        if (!job->master.slots[s].done.contains(i)) {
          job->pending.slots[s].insert(i);
          ++requeued;
        }
  }
  store_.persist_master(*job);
  std::fprintf(stderr,
               "fsim serve: reclaim job=%s task=%d from worker %d "
               "(%llu runs re-queued)\n",
               job->id.c_str(), out.task, worker,
               static_cast<unsigned long long>(requeued));
  finish_if_complete(*job, finished);
  return finished;
}

Job* Scheduler::runnable_for_tenant(const std::string& tenant) {
  for (const auto& job : store_.jobs())
    if (!job->done && job->tenant == tenant && !job->pending.empty())
      return job.get();
  return nullptr;
}

std::optional<Assignment> Scheduler::next_assignment(int worker) {
  auto it = outstanding_.find(worker);
  if (it == outstanding_.end() || it->second.busy) return std::nullopt;

  // Tenant ring in first-submission order, extended as new tenants appear.
  for (const auto& job : store_.jobs())
    if (std::find(tenants_.begin(), tenants_.end(), job->tenant) ==
        tenants_.end())
      tenants_.push_back(job->tenant);
  if (tenants_.empty()) return std::nullopt;

  Job* job = nullptr;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const std::size_t t = (tenant_cursor_ + i) % tenants_.size();
    if ((job = runnable_for_tenant(tenants_[t])) != nullptr) {
      tenant_cursor_ = (t + 1) % tenants_.size();
      break;
    }
  }
  if (!job) return std::nullopt;

  // Auto chunk: ~2 chunks per worker of the current remainder, so late
  // joiners and replacements always find work soon, but never below 8
  // points (assignment overhead dominates tiny chunks) and never above an
  // eighth of the job, so a worker that joins first cannot take half of it.
  std::uint64_t chunk = chunk_;
  if (chunk == 0) {
    const std::uint64_t remaining = job->pending.total();
    const std::uint64_t workers =
        std::max<std::uint64_t>(1, outstanding_.size());
    const std::uint64_t total =
        static_cast<std::uint64_t>(job->master.owned_runs());
    chunk = std::clamp<std::uint64_t>(remaining / (2 * workers), 8,
                                      std::max<std::uint64_t>(8, total / 8));
  }

  Assignment a;
  a.job = job->id;
  a.task = job->next_task++;
  a.spec = job->spec_text;
  a.selection = core::take_front(job->pending, chunk);
  a.sidecar = store_.sidecar_path(*job, a.task);
  a.encoding = encoding_;
  job->outstanding += a.selection.total();

  it->second = Outstanding{a.job, a.task, a.selection, true};
  std::fprintf(stderr,
               "fsim serve: assign job=%s tenant=%s task=%d runs=%llu "
               "worker=%d\n",
               job->id.c_str(), job->tenant.c_str(), a.task,
               static_cast<unsigned long long>(a.selection.total()), worker);
  return a;
}

std::optional<std::string> Scheduler::task_done(int worker,
                                                const std::string& job_id,
                                                int task) {
  const auto it = outstanding_.find(worker);
  if (it == outstanding_.end() || !it->second.busy ||
      it->second.job_id != job_id || it->second.task != task)
    throw util::SetupError("task_done: worker reports a task it does not own");
  Job* job = store_.find(job_id);
  if (!job) throw util::SetupError("task_done: unknown job " + job_id);

  const core::Checkpoint side = core::parse_checkpoint_json(
      util::read_file(store_.sidecar_path(*job, task)));
  core::fold_checkpoint(job->master, side);
  job->outstanding -= it->second.selection.total();
  it->second = Outstanding{};
  store_.persist_master(*job);

  std::vector<std::string> finished;
  finish_if_complete(*job, finished);
  if (finished.empty()) return std::nullopt;
  return finished.front();
}

std::vector<std::string> Scheduler::finalize_idle_jobs() {
  std::vector<std::string> finished;
  for (const auto& job : store_.jobs())
    if (!job->done) finish_if_complete(*job, finished);
  return finished;
}

void Scheduler::finish_if_complete(Job& job,
                                   std::vector<std::string>& finished) {
  if (job.done || !job.pending.empty() || job.outstanding != 0) return;
  if (!job.master.complete()) {
    // Every point is assigned-or-done but some assignments never reported:
    // should be unreachable (outstanding covers in-flight work), so treat
    // as lost work and re-derive the remainder.
    job.pending = core::remaining_selection(job.master);
    return;
  }
  store_.finalize(job);
  std::fprintf(stderr, "fsim serve: job %s (tenant %s) complete\n",
               job.id.c_str(), job.tenant.c_str());
  finished.push_back(job.id);
}

}  // namespace fsim::service
