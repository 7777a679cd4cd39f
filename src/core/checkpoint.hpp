// Incremental shard checkpointing and resume (crash-tolerant campaigns).
//
// A checkpoint is a crash-consistent snapshot of a shard: for every
// (campaign, region) slot it records the partial aggregate counts *and*
// the exact set of completed run indices. Run identity is RNG-free — a
// run's seed is a pure function of (campaign seed, region, index) — so
// "completed" is a set of grid points, not a scheduler state, and resuming
// at any `--jobs` reproduces the uninterrupted aggregates bit for bit:
// integer counts are summed over the same set of grid points in either
// execution.
//
// The checkpoint is the only document fsim reads back. A running shard
// rewrites it atomically (write-to-temp + rename) as a sidecar every N
// completed runs; a finished shard emits it as its default output
// (batch_to_checkpoint); `fsim resume`, `fsim merge` (one fold_checkpoint
// per input), `fsim status` (a file, or the job master checkpoint the
// daemon's status reply carries) and the service all parse it. It is a
// versioned `fsim-batch-v2` JSON document (`"kind": "checkpoint"`). Every
// slot record carries its own FNV-1a digest and the document a digest
// over all records, so torn or hand-edited files are refused at parse
// time, and a done set that reaches outside the grid or its shard is
// refused even when the digests verify.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/run.hpp"

namespace fsim::core {

/// Set of completed run indices for one (campaign, region) slot, kept as
/// sorted disjoint inclusive [first, last] ranges. Under a worker pool,
/// completions arrive nearly in order with a few stragglers, so the range
/// list stays tiny (at most ~jobs entries) and serializes compactly.
class RunSet {
 public:
  /// Insert one run index (idempotent; merges adjacent ranges).
  void insert(int i);
  bool contains(int i) const noexcept;
  /// Number of distinct indices in the set.
  int size() const noexcept;
  bool empty() const noexcept { return ranges_.empty(); }

  const std::vector<std::pair<int, int>>& ranges() const noexcept {
    return ranges_;
  }
  /// Append an inclusive range (deserialization; must arrive sorted and
  /// disjoint — throws SetupError otherwise).
  void append_range(int first, int last);
  /// The indices of this set that `other` does not contain.
  RunSet minus(const RunSet& other) const;
  /// The indices of this set below `end`.
  RunSet below(int end) const;

  bool operator==(const RunSet&) const = default;

 private:
  std::vector<std::pair<int, int>> ranges_;
};

/// Explicit subset of a batch grid: one RunSet of run indices per
/// (campaign, region) slot, in the checkpoint/batch slot order. It is the
/// one way to name the grid points an invocation owns: a shard is
/// shard_selection, a checkpoint's committed grid is that (clipped to the
/// wave frontiers of an adaptive one), a resume is the committed grid
/// minus the done sets (core/reshard.hpp), and a service worker runs an
/// explicit selection (ExecPolicy::selection) carved from a campaign's
/// remaining grid.
struct GridSelection {
  std::vector<RunSet> slots;

  /// Total selected grid points across all slots.
  std::uint64_t total() const noexcept;
  bool empty() const noexcept { return total() == 0; }

  bool operator==(const GridSelection&) const = default;
};

/// Every grid point of the spec list that `shard` owns, one RunSet per
/// slot: round-robin points (shard_owns over the fixed campaign-major
/// enumeration) for fixed-n batches, or every point of each whole cell the
/// shard owns (shard_owns_cell) when `by_cell` — the adaptive sharding.
/// The only caller of either ownership function.
GridSelection shard_selection(const std::vector<CampaignSpec>& specs,
                              ShardSpec shard, bool by_cell = false);

/// Per-(campaign, region) checkpoint record: the partial counts and the
/// run indices they cover. Invariant: counts.executions == done.size().
///
/// Adaptive (--ci) checkpoints additionally record the cell's wave state:
/// `frontier` is the number of grid points the scheduler has committed to
/// run (done is always a subset of [0, frontier)), and `stopped` marks a
/// cell whose interval already met the target (or hit its cap). Both stay
/// zero/false in fixed-n checkpoints and are then neither serialized nor
/// digested, so pre-adaptive sidecar files keep verifying unchanged.
struct CheckpointSlot {
  RegionResult counts;
  RunSet done;
  int frontier = 0;
  bool stopped = false;
};

/// Crash-consistent snapshot of a half-finished shard. The spec list,
/// shard coordinates and per-campaign golden identities pin down exactly
/// which batch the partial counts belong to; resume and merge refuse any
/// mismatch.
struct Checkpoint {
  ShardSpec shard;
  std::vector<CampaignSpec> specs;
  std::vector<Golden> goldens;  // per campaign; `baseline` not serialized
  std::vector<CheckpointSlot> slots;  // campaign-major, then region order
  std::uint64_t cursor = 0;  // highest completed grid index + 1 (diagnostic)
  /// Present iff the checkpoint belongs to an adaptive (--ci) campaign.
  /// The policy is part of the artefact's identity: it is mixed into the
  /// document digest and resume re-applies it, so an unchanged-policy
  /// resume replays the uninterrupted wave schedule exactly. Adaptive
  /// checkpoints shard by whole cell, not by grid point.
  std::optional<AdaptivePolicy> adaptive;

  /// The grid points the shard has committed to run: its shard_selection,
  /// clipped to each cell's frontier in an adaptive checkpoint (the wave
  /// scheduler commits the rest of a cell one wave at a time).
  GridSelection committed() const;
  /// Total completed runs across all slots.
  int completed_runs() const noexcept;
  /// Size of the committed grid (the denominator of completed_runs()).
  int owned_runs() const;
  /// Has every committed grid point run? An adaptive checkpoint is
  /// complete only once every cell its shard owns has also stopped.
  bool complete() const;
};

/// Empty checkpoint for a batch about to start (slots sized and zeroed).
Checkpoint make_checkpoint(std::vector<CampaignSpec> specs,
                           std::vector<Golden> goldens, ShardSpec shard);

/// Refuse a checkpoint that does not belong to the batch identified by
/// (adaptive kind, shard, specs, per-campaign goldens): any drift would
/// silently mix counts from different fault spaces. Goldens must agree in
/// instructions, hang budget and per-rank rx bytes. Errors are SetupErrors
/// prefixed with `what` ("resume", "fold").
void require_same_batch(const char* what, const Checkpoint& checkpoint,
                        bool adaptive, const ShardSpec& shard,
                        const std::vector<CampaignSpec>& specs,
                        const std::vector<Golden>& goldens);

/// Serialize / parse the checkpoint document. parse verifies the per-slot
/// and whole-document digests, then the done sets: every index inside the
/// grid and every done set inside the committed grid (an adaptive cell's
/// frontier inside its grid, and no wave state in cells its shard does not
/// own).
/// It throws SetupError on any violation or on a non-checkpoint document
/// (result exports included). It accepts either on-disk encoding: the
/// plain JSON layout or the compact `"encoding": "fnv-bin-v1"` wrapper
/// (the whole snapshot packed into one digested base64 blob) — both parse
/// to the identical Checkpoint, so resume is byte-identical across
/// encodings.
std::string checkpoint_json(const Checkpoint& checkpoint);
Checkpoint parse_checkpoint_json(const std::string& text);

/// Serialize in the requested encoding (kJson == checkpoint_json).
std::string checkpoint_serialize(const Checkpoint& checkpoint,
                                 CheckpointEncoding encoding);

/// Whole-document FNV-1a digest (the value serialized as "digest" and
/// verified on parse) — the cheap identity token `fsim status` reports.
std::uint64_t checkpoint_digest(const Checkpoint& checkpoint);

// --- Status (`fsim status`, for a file or a daemon job) ---

/// Progress summary of one checkpoint/campaign state: done/remaining runs
/// per campaign, wave frontiers for adaptive documents, and the document
/// digest. Computed by checkpoint_status and rendered by
/// format_checkpoint_status.
struct CheckpointStatus {
  struct Row {
    std::string app;
    Region region{};
    int done = 0;
    int owned = 0;     // this shard's grid points (selection-independent)
    int frontier = 0;  // adaptive: committed wave frontier
    bool stopped = false;
  };
  ShardSpec shard;
  bool adaptive = false;
  bool complete = false;
  int done = 0;
  int owned = 0;
  std::uint64_t digest = 0;
  std::vector<Row> rows;  // slot order
};

CheckpointStatus checkpoint_status(const Checkpoint& checkpoint);

/// Human-readable table: one line per (campaign, region) slot plus a
/// summary footer.
std::string format_checkpoint_status(const CheckpointStatus& status);

/// Project a checkpoint into a BatchResult whose counts cover exactly the
/// checkpoint's completed grid points (`fsim merge` renders the folded
/// master this way).
BatchResult checkpoint_to_batch(const Checkpoint& checkpoint);

/// The inverse for a finished shard: the checkpoint its sidecar holds
/// after the last run, and what `fsim batch --shard` writes by default.
/// Every done set is the committed grid. Adaptive (`adaptive` = the run's
/// policy): every owned cell is stopped with its frontier at its
/// executions. The cursor is one past the highest done grid index.
Checkpoint batch_to_checkpoint(
    const BatchResult& result,
    const std::optional<AdaptivePolicy>& adaptive = std::nullopt);

/// CampaignObserver that maintains a live Checkpoint image of the running
/// batch and atomically rewrites the sidecar file every `every` completed
/// runs. run_batch installs one when BatchConfig::checkpoint_path is set;
/// it is public so tests and embedders can drive it directly. All hooks
/// are invoked under the batch's observer mutex (see CampaignObserver).
class CheckpointSink : public CampaignObserver {
 public:
  /// `initial` is the resume baseline (or an empty checkpoint). `notify`
  /// (borrowed, may be null) receives on_checkpoint after every file
  /// write. `encoding` picks the sidecar layout (resume reads either).
  /// Throws SetupError when every < 1.
  CheckpointSink(std::string path, int every, Checkpoint initial,
                 CampaignObserver* notify = nullptr,
                 CheckpointEncoding encoding = CheckpointEncoding::kJson);

  void on_run_done(const RunEvent& event) override;

  /// Write the current state unconditionally (run_batch calls this once
  /// after the grid drains, so a finished shard leaves a complete
  /// checkpoint behind).
  void flush();

  /// Record a cell's wave state in the checkpoint image (adaptive
  /// campaigns; picked up by the next write). The scheduler advances a
  /// cell's frontier *before* executing the wave, so any snapshot's done
  /// set is always a subset of [0, frontier).
  void update_cell(std::size_t slot, int frontier, bool stopped);

  const Checkpoint& state() const noexcept { return checkpoint_; }

 private:
  void write();

  std::string path_;
  int every_;
  int pending_ = 0;  // runs accumulated since the last write
  Checkpoint checkpoint_;
  CampaignObserver* notify_;
  CheckpointEncoding encoding_;
};

}  // namespace fsim::core
