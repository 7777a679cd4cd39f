// Service-layer units: the durable JobStore (create, reload, orphan-sidecar
// recovery) and the elastic Scheduler (tenant fairness, worker loss and
// reclaim, fold-on-completion) — everything the daemon does minus the
// sockets, driven synchronously so each property is deterministic.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "core/reshard.hpp"
#include "service/queue.hpp"
#include "service/scheduler.hpp"
#include "util/file.hpp"
#include "util/status.hpp"

namespace fsim::service {
namespace {

// Small enough for a unit test, big enough to split into several chunks.
const char* kSpec =
    R"({"format": "fsim-batch-v2", "runs": 12, "seed": 5,)"
    R"( "regions": ["regular"],)"
    R"( "campaigns": [{"app": "wavetoy", "ranks": 4, "steps": 8}]})";

std::string fresh_state(const std::string& name) {
  const std::string dir = "service_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Execute one assignment as `fsim worker` would. The worker keeps one
/// session across a job's chunks; a fresh one per chunk writes the same
/// sidecar (Batch.OneSessionServesManySelections pins that).
void run_assignment(const Assignment& a) {
  const std::vector<core::BatchEntry> entries =
      core::entries_for_specs(core::parse_batch_spec(a.spec));
  core::BatchConfig bc;
  bc.selection = &a.selection;
  bc.checkpoint_path = a.sidecar;
  bc.checkpoint_every = 1;
  bc.checkpoint_encoding = a.encoding;
  (void)core::run_batch(entries, bc);
}

TEST(JobStore, CreateValidatesPersistsAndReloads) {
  const std::string dir = fresh_state("reload");
  {
    JobStore store(dir);
    EXPECT_THROW(store.create("t", "not a spec"), util::SetupError);
    EXPECT_TRUE(store.jobs().empty());  // failed create leaves no state
    Job& job = store.create("alice", kSpec);
    EXPECT_EQ(job.id, "j1");
    EXPECT_EQ(job.pending.total(), 12u);
    EXPECT_FALSE(job.done);
    store.create("bob", kSpec);
  }
  JobStore again(dir);
  ASSERT_EQ(again.jobs().size(), 2u);
  EXPECT_EQ(again.jobs()[0]->id, "j1");
  EXPECT_EQ(again.jobs()[0]->tenant, "alice");
  EXPECT_EQ(again.jobs()[1]->tenant, "bob");
  EXPECT_EQ(again.jobs()[0]->pending.total(), 12u);
  // The allocator resumes past every loaded id.
  EXPECT_EQ(again.create("carol", kSpec).id, "j3");
  std::filesystem::remove_all(dir);
}

TEST(Scheduler, RoundRobinAcrossTenantsAtChunkGranularity) {
  const std::string dir = fresh_state("fair");
  JobStore store(dir);
  Scheduler sched(store, /*chunk=*/4, core::CheckpointEncoding::kJson);
  store.create("alice", kSpec);
  store.create("bob", kSpec);
  for (int w : {1, 2, 3, 4}) sched.worker_joined(w);
  EXPECT_EQ(sched.workers(), 4u);

  // Four idle workers: assignments alternate tenants, not first-job-first.
  std::vector<std::string> order;
  for (int w : {1, 2, 3, 4}) {
    const auto a = sched.next_assignment(w);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->selection.total(), 4u);
    order.push_back(store.find(a->job)->tenant);
    // A busy worker gets nothing until it reports.
    EXPECT_FALSE(sched.next_assignment(w).has_value());
  }
  EXPECT_EQ(order,
            (std::vector<std::string>{"alice", "bob", "alice", "bob"}));
  std::filesystem::remove_all(dir);
}

TEST(Scheduler, WorkerLossRequeuesAndKeepsPartialProgress) {
  const std::string dir = fresh_state("loss");
  JobStore store(dir);
  Scheduler sched(store, /*chunk=*/8, core::CheckpointEncoding::kJson);
  Job& job = store.create("alice", kSpec);
  sched.worker_joined(1);

  // Death before any checkpoint: the full chunk returns to the pool.
  auto a = sched.next_assignment(1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(job.pending.total(), 4u);
  sched.worker_lost(1);
  EXPECT_EQ(job.pending.total(), 12u);
  EXPECT_EQ(sched.workers(), 0u);

  // Death after finishing the work but before reporting: the reclaimed
  // sidecar is folded, so nothing re-runs.
  sched.worker_joined(2);
  a = sched.next_assignment(2);
  ASSERT_TRUE(a.has_value());
  run_assignment(*a);
  sched.worker_lost(2);
  EXPECT_EQ(job.pending.total(), 4u);
  EXPECT_EQ(job.master.completed_runs(), 8);
  std::filesystem::remove_all(dir);
}

TEST(Scheduler, DrainingAllAssignmentsReproducesTheMonolithicResult) {
  const std::string dir = fresh_state("drain");
  JobStore store(dir);
  Scheduler sched(store, /*chunk=*/5, core::CheckpointEncoding::kBinary);
  Job& job = store.create("alice", kSpec);
  sched.worker_joined(1);

  bool completed = false;
  while (const auto a = sched.next_assignment(1)) {
    run_assignment(*a);
    // An unknown task is refused before any fold happens.
    EXPECT_THROW(sched.task_done(1, a->job, a->task + 99), util::SetupError);
    const auto done = sched.task_done(1, a->job, a->task);
    completed = done.has_value();
  }
  EXPECT_TRUE(completed);
  EXPECT_TRUE(job.done);

  const std::vector<core::BatchEntry> entries =
      core::entries_for_specs(core::parse_batch_spec(kSpec));
  core::BatchConfig mono;
  const core::BatchResult whole = core::run_batch(entries, mono);
  EXPECT_EQ(store.result_text(job), core::batch_json(whole) + "\n");

  // A daemon restart sees the finished job as done with nothing pending.
  JobStore again(dir);
  ASSERT_EQ(again.jobs().size(), 1u);
  EXPECT_TRUE(again.jobs()[0]->done);
  std::filesystem::remove_all(dir);
}

TEST(Scheduler, SecondJoinOnABusyWorkerIsRefusedAndItsChunkRequeues) {
  const std::string dir = fresh_state("rejoin");
  JobStore store(dir);
  Scheduler sched(store, /*chunk=*/5, core::CheckpointEncoding::kJson);
  Job& job = store.create("alice", kSpec);
  sched.worker_joined(1);
  const auto a = sched.next_assignment(1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(job.outstanding, 5u);

  // A repeated join must not wipe the slot: the assignment stays in
  // flight, owned by worker 1, and no second one is handed out.
  EXPECT_THROW(sched.worker_joined(1), util::SetupError);
  EXPECT_EQ(sched.workers(), 1u);
  EXPECT_EQ(job.outstanding, 5u);
  EXPECT_FALSE(sched.next_assignment(1).has_value());

  // The daemon drops the refused connection, which re-queues the chunk.
  sched.worker_lost(1);
  EXPECT_EQ(job.outstanding, 0u);
  EXPECT_EQ(job.pending.total(), 12u);

  // Another worker drains the job to the monolithic result.
  sched.worker_joined(2);
  while (const auto b = sched.next_assignment(2)) {
    run_assignment(*b);
    sched.task_done(2, b->job, b->task);
  }
  ASSERT_TRUE(job.done);
  const core::BatchResult whole = core::run_batch(
      core::entries_for_specs(core::parse_batch_spec(kSpec)),
      core::BatchConfig{});
  EXPECT_EQ(store.result_text(job), core::batch_json(whole) + "\n");
  std::filesystem::remove_all(dir);
}

TEST(Scheduler, AutoChunkNeverExceedsAnEighthOfTheJob) {
  const std::string dir = fresh_state("autochunk");
  JobStore store(dir);
  Scheduler sched(store, /*chunk=*/0, core::CheckpointEncoding::kJson);
  // 200 grid points; nothing runs, so the size costs nothing.
  Job& job = store.create(
      "alice",
      R"({"format": "fsim-batch-v2", "runs": 100, "seed": 5,)"
      R"( "regions": ["regular", "bss"],)"
      R"( "campaigns": [{"app": "wavetoy", "ranks": 4, "steps": 8}]})");
  const std::uint64_t total = job.pending.total();
  ASSERT_EQ(total, 200u);

  // A worker that joins alone takes a chunk; only then does a second join.
  sched.worker_joined(1);
  const auto first = sched.next_assignment(1);
  ASSERT_TRUE(first.has_value());
  sched.worker_joined(2);
  const auto second = sched.next_assignment(2);
  ASSERT_TRUE(second.has_value());

  // Neither chunk exceeds an eighth of the job, and both workers hold work
  // before half of it has been assigned.
  EXPECT_LE(first->selection.total(), total / 8);
  EXPECT_LE(second->selection.total(), total / 8);
  EXPECT_LT(job.outstanding, total / 2);
  std::filesystem::remove_all(dir);
}

TEST(JobStore, RestartFoldsOrphanSidecarsBeforeRequeueing) {
  const std::string dir = fresh_state("orphan");
  std::string sidecar;
  {
    JobStore store(dir);
    Scheduler sched(store, /*chunk=*/7, core::CheckpointEncoding::kJson);
    sched.worker_joined(1);
    store.create("alice", kSpec);
    const auto a = sched.next_assignment(1);
    ASSERT_TRUE(a.has_value());
    run_assignment(*a);
    sidecar = a->sidecar;
    // Daemon "crashes" here: the sidecar is on disk, the master is not
    // updated, task_done never arrives.
  }
  EXPECT_TRUE(std::filesystem::exists(sidecar));
  JobStore again(dir);
  ASSERT_EQ(again.jobs().size(), 1u);
  EXPECT_EQ(again.jobs()[0]->master.completed_runs(), 7);
  EXPECT_EQ(again.jobs()[0]->pending.total(), 5u);
  EXPECT_FALSE(std::filesystem::exists(sidecar));  // consumed on reload
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fsim::service
