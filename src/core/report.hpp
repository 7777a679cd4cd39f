// Machine-readable campaign exports (JSON / CSV) and the batch spec reader.
// Result documents are write-only: downstream tooling consumes them, and
// fsim itself reads back only checkpoints (core/checkpoint.hpp) and
// `fsim batch --spec` batch descriptions.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/campaign.hpp"

namespace fsim::util {
class JsonWriter;
class JsonValue;
}

namespace fsim::core {

/// Versioned document header. Batch specs, batch results and checkpoints
/// carry this `"format"`; results and checkpoints also carry a `"kind"`
/// ("result" | "checkpoint"), so the checkpoint reader refuses a result
/// export with a precise error.
inline constexpr const char* kBatchFormatV2 = "fsim-batch-v2";

/// Full campaign result as a JSON document: app, seed, golden statistics,
/// and per-region execution counts plus manifestation breakdown.
std::string campaign_json(const CampaignResult& result);

/// Flat CSV: one row per region with counts and percentages.
std::string campaign_csv(const CampaignResult& result);

/// Order-sensitive FNV-1a fold of every aggregate field of every region —
/// the equality oracle for batch-vs-serial and shard-merge determinism
/// checks (two results digest equal iff all counts are identical).
std::uint64_t aggregate_digest(const CampaignResult& result);

/// Digest of a whole batch (campaign digests folded in spec order).
std::uint64_t batch_digest(const BatchResult& result);

/// Prune-invariant digest: folds every field pruning must preserve
/// (executions, skipped, manifestation counts, crash kinds, activation
/// splits) while excluding the pruned/pruned_rungs bookkeeping, which
/// legitimately differs across --prune levels. Two batches of the same
/// spec run at different prune levels (or engines, or job counts) must
/// produce equal outcome digests — the ci matrix gate asserts exactly
/// that.
std::uint64_t outcome_digest(const BatchResult& result);

/// Batch result as a self-describing, write-only JSON export: shard
/// coordinates, the batch digests and, per campaign, the full spec and the
/// campaign result (Golden::baseline, a raw output stream, is not
/// serialized).
///
/// `annex`, when given, is invoked with the writer positioned inside the
/// top-level object just before it closes — producers add extra top-level
/// keys (e.g. the adaptive scheduler's "adaptive" block) without forking
/// the schema.
std::string batch_json(
    const BatchResult& result,
    const std::function<void(util::JsonWriter&)>& annex = {});

/// Per-campaign CSV rows (campaign_csv with the header emitted once).
std::string batch_csv(const BatchResult& result);

/// Batch description for `fsim batch --spec=FILE`:
///   {"format": "fsim-batch-v2", "runs": 200, "seed": 250, "prune": "full",
///    "regions": ["regular",...], "ranks": 4,
///    "campaigns": [{"app": "wavetoy", "runs": 400, "steps": 8}, ...]}
/// Top-level keys give defaults; each campaign object needs at least
/// "app" and may override runs/seed/regions/prune/dictionary_entries/engine
/// and the app *config* parameters "ranks" and "steps" (0 or absent: the
/// app's defaults). A missing or different "format" is refused.
///
/// Throws SetupError on malformed specs.
std::vector<CampaignSpec> parse_batch_spec(const std::string& text);

// --- Shared JSON fragments (used by report.cpp and checkpoint.cpp) ---

/// Raw aggregate fields of one RegionResult, written as key/value pairs
/// into the caller's open object (everything except the region tag and
/// the derived rates).
void write_region_counts(util::JsonWriter& w, const RegionResult& rr);
void read_region_counts(const util::JsonValue& v, RegionResult& rr);

/// Campaign spec as a (versioned) JSON object value.
void write_campaign_spec(util::JsonWriter& w, const CampaignSpec& spec);
CampaignSpec read_campaign_spec(const util::JsonValue& v);

/// Golden-run identity (instructions, hang budget, per-rank rx volume;
/// the raw baseline stream is deliberately not serialized).
void write_golden_json(util::JsonWriter& w, const Golden& golden);
Golden read_golden_json(const util::JsonValue& v);

/// Continue an FNV-1a fold `h` over one region's aggregate fields (the
/// per-region step of aggregate_digest, shared with checkpoint records).
std::uint64_t region_counts_digest(const RegionResult& rr, std::uint64_t h);

}  // namespace fsim::core
