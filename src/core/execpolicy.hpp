// Shared execution policy for every campaign driver.
//
// run_campaign, run_batch, run_adaptive and the service worker share one
// ExecPolicy: the jobs/shard/observer/checkpoint/resume/selection knobs.
// BatchConfig and AdaptiveConfig derive from it, run_campaign and
// analyze_app take one beside their CampaignConfig, and code that forwards
// a policy passes it as a unit (`config.exec()`).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace fsim::core {

class CampaignObserver;  // core/campaign.hpp
struct Checkpoint;       // core/checkpoint.hpp
struct GridSelection;    // core/checkpoint.hpp

/// Deterministic shard of a combined batch grid: an invocation executes
/// only the grid points it owns; N hosts running shards 0/N .. N-1/N cover
/// the grid exactly once between them (see shard_owns).
struct ShardSpec {
  int index = 0;
  int count = 1;

  bool operator==(const ShardSpec&) const = default;
};

/// Throws SetupError ("invalid shard i/N") unless 0 <= index < count.
void require_valid_shard(const ShardSpec& shard);

/// Shard ownership is a pure function of the grid point's index in the
/// fixed enumeration order (campaign-major, then region, then run):
/// round-robin `g mod count == index`. Every grid point therefore belongs
/// to exactly one of the N shards, independent of scheduling, job count or
/// host — the partition is total and disjoint by construction. Only
/// shard_selection (core/checkpoint.hpp) calls it; everything else asks
/// that selection.
constexpr bool shard_owns(std::uint64_t grid_index,
                          const ShardSpec& shard) noexcept {
  return shard.count <= 1 ||
         grid_index % static_cast<std::uint64_t>(shard.count) ==
             static_cast<std::uint64_t>(shard.index);
}

/// Adaptive (--ci) campaigns shard whole (campaign, region) cells rather
/// than individual grid points: cell `slot` belongs to shard
/// `slot mod count`, round-robin like shard_owns. Keeping every run of a
/// cell on one host makes the per-cell stopping decisions local — each
/// shard reaches exactly the decisions the unsharded run would, so
/// `fsim merge` over cell shards reproduces it bit for bit. Only
/// shard_selection calls it, with `by_cell` set.
constexpr bool shard_owns_cell(std::size_t slot,
                               const ShardSpec& shard) noexcept {
  return shard.count <= 1 ||
         slot % static_cast<std::size_t>(shard.count) ==
             static_cast<std::size_t>(shard.index);
}

/// On-disk encoding of a checkpoint sidecar. Both are fsim-batch-v2 JSON
/// documents; kBinary packs the whole snapshot into one digested base64
/// blob (`"encoding": "fnv-bin-v1"`), cutting sidecar size and rewrite
/// cost for large grids. Resume accepts either transparently and is
/// byte-identical across encodings.
enum class CheckpointEncoding : std::uint8_t { kJson, kBinary };

/// "json" | "bin".
const char* checkpoint_encoding_name(CheckpointEncoding encoding) noexcept;

/// Parse a --ckpt-encoding value; nullopt on anything unknown.
std::optional<CheckpointEncoding> parse_checkpoint_encoding(
    std::string_view text) noexcept;

/// How a campaign/batch executes — everything about the *mechanics* of a
/// run that is not part of the result's identity. Two invocations with the
/// same specs but different ExecPolicies produce bit-identical aggregates
/// over the grid points they cover.
struct ExecPolicy {
  /// Worker threads of the session pool that runs every golden run and
  /// every injected run (1 = one pool thread, which runs the grid's walks
  /// in BatchSession::run_points' order). Aggregates are bit-identical at
  /// any job count: every run's seed depends only on (campaign seed,
  /// region, index), and per-worker partial counts are merged in a fixed
  /// order.
  int jobs = 1;
  /// Grid shard this invocation executes (default: the whole grid).
  ShardSpec shard;
  /// Optional callback surface (borrowed, not owned). All hooks are
  /// dispatched under one batch-wide mutex, before the internal
  /// checkpoint sink.
  CampaignObserver* observer = nullptr;

  // --- Crash tolerance ---
  /// When non-empty, stream an incremental checkpoint of this shard to the
  /// given sidecar file: partial per-slot counts plus the exact set of
  /// completed (seed, region, index) grid points, rewritten atomically
  /// (write-to-temp + rename) every `checkpoint_every` completed runs and
  /// once more on completion. Resuming from any intermediate file yields
  /// aggregates byte-identical to an uninterrupted run, at any job count.
  std::string checkpoint_path;
  /// Completed runs between checkpoint writes (>= 1).
  int checkpoint_every = 64;
  /// Sidecar encoding (resume reads either regardless of this setting).
  CheckpointEncoding checkpoint_encoding = CheckpointEncoding::kJson;
  /// Resume baseline (borrowed): skip every grid point the checkpoint
  /// already counted and fold its partial counts into the totals. The
  /// checkpoint's shard, spec list and golden identities must match the
  /// batch exactly; any mismatch is refused with a SetupError.
  const Checkpoint* resume = nullptr;

  // --- Elastic execution (service workers) ---
  /// Explicit subset of the grid to execute (borrowed; null = every
  /// shard-owned point not yet in `resume`). It runs alone: combined with
  /// a shard or a resume it is refused. The service scheduler re-shards
  /// the remaining grid of a campaign into such selections; the per-slot
  /// done/owned progress denominators then cover only the selected points,
  /// and the checkpoint sidecar records exactly the selection's
  /// completions, so a disjoint family of selections folds back to the
  /// monolithic run bit for bit.
  const GridSelection* selection = nullptr;

  /// The policy subobject of a derived config, by either name.
  ExecPolicy& exec() noexcept { return *this; }
  const ExecPolicy& exec() const noexcept { return *this; }
};

}  // namespace fsim::core
