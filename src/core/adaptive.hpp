// Adaptive stratified sampling: CI-targeted campaigns (docs/STATISTICS.md).
//
// A fixed-n campaign spends the same number of runs on every (campaign,
// region) cell, although cells differ wildly in how many observations
// their error rate needs: ladder-pruned strata resolve almost instantly
// (pruned runs are Correct observations at ~zero simulation cost), while a
// high-variance register cell needs the full Cochran budget. The adaptive
// scheduler runs the *same* injection grid in waves and stops each cell
// independently once the Wilson interval of its error rate is narrower
// than the requested --ci target — same confidence, far fewer runs.
//
// Determinism: a wave executes a contiguous prefix-extension of the fixed
// enumeration order, run seeds stay the pure (seed, region, index) hash,
// and stopping decisions are functions of per-cell integer counts at wave
// boundaries only. Aggregates at wave boundaries are bit-identical at any
// --jobs (fixed-order partial merge), so the whole schedule — and the
// final counts — replay bit for bit across job counts, kill/resume and
// cell-sharded execution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"

namespace fsim::core {

/// Why (and whether) a cell stopped scheduling new waves.
enum class CellStop : std::uint8_t {
  kOpen,    // still running (only seen mid-campaign)
  kTarget,  // Wilson half-width reached the --ci target
  kCapped,  // hit the per-cell cap (runs_per_region) first
};

/// Final wave-scheduler state of one (campaign, region) cell.
struct CellStatus {
  std::size_t campaign = 0;
  Region region{};
  bool owned = true;   // false: another shard's cell, nothing ran here
  int scheduled = 0;   // grid points committed (the cell's frontier)
  int waves = 0;       // waves this cell participated in
  CellStop stop = CellStop::kOpen;
  double half_width = 1.0;  // achieved Wilson half-width of the error rate
};

/// Adaptive execution = the shared ExecPolicy plus the stopping policy.
/// Differences from fixed-n batches: the shard is cell-level
/// (shard_selection by cell: each (campaign, region) cell is wholly owned
/// by one shard, so stopping decisions are local and `fsim merge` over all
/// shards reproduces the unsharded run bit for bit); on_region_done fires
/// when a cell *stops*; checkpoints additionally record the policy and
/// each cell's wave frontier; `resume` must be an adaptive checkpoint for
/// this exact batch (callers reuse its recorded policy unless the user
/// explicitly overrides it); and `selection` is not supported (waves are
/// data-dependent).
struct AdaptiveConfig : ExecPolicy {
  AdaptivePolicy policy;
};

struct AdaptiveResult {
  BatchResult batch;
  AdaptivePolicy policy;
  std::vector<CellStatus> cells;  // flattened slot order
  /// Grid points executed across all owned cells (the number a fixed-n
  /// campaign would compare against); equals the sum of cell frontiers.
  std::uint64_t total_runs = 0;
  /// Of those, how many were statically pruned (observed at ~zero cost).
  std::uint64_t pruned_runs = 0;
};

/// Run every campaign's grid in CI-targeted waves through one shared
/// BatchSession. Each entry's runs_per_region acts as the per-cell cap
/// (--max-runs). Throws SetupError on an invalid shard, a non-adaptive or
/// mismatched resume checkpoint, or a policy with out-of-range fields.
AdaptiveResult run_adaptive(const std::vector<BatchEntry>& entries,
                            const AdaptiveConfig& config);

/// Per-cell stopping table: runs, error rate, achieved half-width vs the
/// target, waves, and how the cell stopped.
std::string format_adaptive(const AdaptiveResult& result);

/// The standard fsim-batch-v2 result export with an extra "adaptive"
/// annex (policy + per-cell wave statistics); its digests cover the same
/// counts as the plain document, so consumers that ignore the annex read
/// an ordinary batch result.
std::string adaptive_json(const AdaptiveResult& result);

}  // namespace fsim::core
