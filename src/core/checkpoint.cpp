#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/report.hpp"
#include "core/reshard.hpp"
#include "util/codec.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

namespace fsim::core {

const char* checkpoint_encoding_name(CheckpointEncoding encoding) noexcept {
  return encoding == CheckpointEncoding::kBinary ? "bin" : "json";
}

std::optional<CheckpointEncoding> parse_checkpoint_encoding(
    std::string_view text) noexcept {
  if (text == "json") return CheckpointEncoding::kJson;
  if (text == "bin") return CheckpointEncoding::kBinary;
  return std::nullopt;
}

void require_valid_shard(const ShardSpec& shard) {
  if (shard.index < 0 || shard.index >= shard.count)
    throw util::SetupError("invalid shard " + std::to_string(shard.index) +
                           "/" + std::to_string(shard.count));
}

// --- RunSet ---

void RunSet::insert(int i) {
  // Find the first range with last >= i - 1 (the only candidate that can
  // absorb or follow i).
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), i,
      [](const std::pair<int, int>& r, int v) { return r.second < v - 1; });
  if (it != ranges_.end() && it->first <= i && i <= it->second) return;
  if (it != ranges_.end() && it->second == i - 1) {
    it->second = i;  // extend left neighbour
  } else if (it != ranges_.end() && it->first == i + 1) {
    it->first = i;  // extend right neighbour
  } else {
    it = ranges_.insert(it, {i, i});
  }
  // Coalesce with the following range if the gap closed.
  auto next = it + 1;
  if (next != ranges_.end() && next->first == it->second + 1) {
    it->second = next->second;
    ranges_.erase(next);
  }
}

bool RunSet::contains(int i) const noexcept {
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), i,
      [](const std::pair<int, int>& r, int v) { return r.second < v; });
  return it != ranges_.end() && it->first <= i;
}

int RunSet::size() const noexcept {
  int n = 0;
  for (const auto& [first, last] : ranges_) n += last - first + 1;
  return n;
}

void RunSet::append_range(int first, int last) {
  if (first > last || first < 0)
    throw util::SetupError("checkpoint: malformed run range [" +
                           std::to_string(first) + ", " +
                           std::to_string(last) + "]");
  if (!ranges_.empty() && ranges_.back().second >= first - 1)
    throw util::SetupError(
        "checkpoint: run ranges out of order or overlapping");
  ranges_.push_back({first, last});
}

RunSet RunSet::minus(const RunSet& other) const {
  RunSet out;
  auto cut = other.ranges_.begin();
  for (auto [first, last] : ranges_) {
    while (cut != other.ranges_.end() && cut->second < first) ++cut;
    // Carve every overlapping range of `other` out of [first, last].
    for (auto c = cut; c != other.ranges_.end() && c->first <= last; ++c) {
      if (c->first > first) out.append_range(first, c->first - 1);
      first = c->second + 1;
    }
    if (first <= last) out.append_range(first, last);
  }
  return out;
}

RunSet RunSet::below(int end) const {
  RunSet out;
  for (const auto& [first, last] : ranges_) {
    if (first >= end) break;
    out.ranges_.push_back({first, std::min(last, end - 1)});
  }
  return out;
}

// --- Checkpoint ---

int Checkpoint::completed_runs() const noexcept {
  int n = 0;
  for (const auto& slot : slots) n += slot.counts.executions;
  return n;
}

GridSelection Checkpoint::committed() const {
  GridSelection sel = shard_selection(specs, shard, adaptive.has_value());
  if (adaptive)
    for (std::size_t s = 0; s < sel.slots.size(); ++s)
      sel.slots[s] = sel.slots[s].below(slots[s].frontier);
  return sel;
}

int Checkpoint::owned_runs() const {
  return static_cast<int>(committed().total());
}

bool Checkpoint::complete() const {
  if (adaptive) {
    const GridSelection owned = shard_selection(specs, shard, true);
    for (std::size_t s = 0; s < slots.size(); ++s)
      if (!owned.slots[s].empty() && !slots[s].stopped) return false;
  }
  return remaining_selection(*this).empty();
}

Checkpoint make_checkpoint(std::vector<CampaignSpec> specs,
                           std::vector<Golden> goldens, ShardSpec shard) {
  Checkpoint ck;
  ck.shard = shard;
  ck.specs = std::move(specs);
  ck.goldens = std::move(goldens);
  std::size_t nslots = 0;
  for (const auto& spec : ck.specs) nslots += spec.regions.size();
  ck.slots.resize(nslots);
  std::size_t slot = 0;
  for (const auto& spec : ck.specs)
    for (Region r : spec.regions) ck.slots[slot++].counts.region = r;
  return ck;
}

void require_same_batch(const char* what, const Checkpoint& ck,
                        bool adaptive, const ShardSpec& shard,
                        const std::vector<CampaignSpec>& specs,
                        const std::vector<Golden>& goldens) {
  const std::string prefix = std::string(what) + ": checkpoint ";
  if (ck.adaptive.has_value() != adaptive)
    throw util::SetupError(
        prefix + "belongs to " +
        (adaptive ? "a fixed-n campaign, not an adaptive (--ci) one"
                  : "an adaptive (--ci) campaign, not a fixed-n one"));
  if (!(ck.shard == shard))
    throw util::SetupError(
        prefix + "covers shard " + std::to_string(ck.shard.index) +
        "/" + std::to_string(ck.shard.count) + ", batch runs shard " +
        std::to_string(shard.index) + "/" + std::to_string(shard.count));
  if (ck.specs != specs)
    throw util::SetupError(
        prefix + "was produced by a different batch spec (apps, app params, "
                 "runs, seeds, regions, dictionary sizes and prune levels "
                 "must all match)");
  std::size_t nslots = 0;
  for (const auto& spec : specs) nslots += spec.regions.size();
  if (ck.slots.size() != nslots || ck.goldens.size() != specs.size() ||
      goldens.size() != specs.size())
    throw util::SetupError(prefix + "slot layout is corrupted");
  for (std::size_t c = 0; c < specs.size(); ++c) {
    const Golden& g = goldens[c];
    const Golden& cg = ck.goldens[c];
    if (cg.instructions != g.instructions ||
        cg.hang_budget != g.hang_budget || cg.rx_bytes != g.rx_bytes)
      throw util::SetupError(
          std::string(what) + ": golden run for campaign '" + specs[c].app +
          "' disagrees with the checkpoint (the app or its config changed "
          "since the checkpoint was written)");
  }
}

// --- Serialization ---

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
  return h;
}

std::uint64_t mix_string(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = mix(h, c);
  return h;
}

std::uint64_t spec_digest(std::uint64_t h, const CampaignSpec& spec) {
  h = mix_string(h, spec.app);
  h = mix(h, static_cast<std::uint64_t>(spec.runs_per_region));
  h = mix(h, spec.seed);
  for (Region r : spec.regions) h = mix(h, static_cast<std::uint64_t>(r));
  h = mix(h, static_cast<std::uint64_t>(spec.dictionary_entries));
  h = mix(h, static_cast<std::uint64_t>(spec.prune));
  h = mix(h, static_cast<std::uint64_t>(spec.params.ranks));
  h = mix(h, static_cast<std::uint64_t>(spec.params.steps));
  return h;
}

/// Bit pattern of a policy double (doubles round-trip exactly through the
/// %.17g JSON encoding, so hashing the representation is stable).
std::uint64_t double_bits(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// Digest of one checkpoint record: its coordinates, completed-run ranges
/// and every aggregate field — plus the wave state when the document is
/// adaptive (legacy fixed-n digests stay byte-identical).
std::uint64_t slot_record_digest(std::size_t campaign,
                                 const CheckpointSlot& slot, bool adaptive) {
  std::uint64_t h = kFnvBasis;
  h = mix(h, static_cast<std::uint64_t>(campaign));
  h = mix(h, static_cast<std::uint64_t>(slot.counts.region));
  for (const auto& [first, last] : slot.done.ranges()) {
    h = mix(h, static_cast<std::uint64_t>(first));
    h = mix(h, static_cast<std::uint64_t>(last));
  }
  if (adaptive) {
    h = mix(h, static_cast<std::uint64_t>(slot.frontier));
    h = mix(h, slot.stopped ? 1u : 0u);
  }
  return region_counts_digest(slot.counts, h);
}

}  // namespace

/// Whole-document digest: shard coordinates, cursor, every spec, every
/// golden identity, every slot record and (when present) the adaptive
/// stopping policy.
std::uint64_t checkpoint_digest(const Checkpoint& ck) {
  std::uint64_t h = kFnvBasis;
  h = mix(h, static_cast<std::uint64_t>(ck.shard.index));
  h = mix(h, static_cast<std::uint64_t>(ck.shard.count));
  h = mix(h, ck.cursor);
  if (ck.adaptive) {
    h = mix(h, double_bits(ck.adaptive->ci));
    h = mix(h, double_bits(ck.adaptive->alpha));
    h = mix(h, static_cast<std::uint64_t>(ck.adaptive->wave));
    h = mix(h, static_cast<std::uint64_t>(ck.adaptive->min_runs));
  }
  for (const auto& spec : ck.specs) h = spec_digest(h, spec);
  for (const auto& g : ck.goldens) {
    h = mix(h, g.instructions);
    h = mix(h, g.hang_budget);
    for (std::uint64_t b : g.rx_bytes) h = mix(h, b);
  }
  std::size_t slot = 0;
  std::size_t campaign = 0;
  for (const auto& spec : ck.specs) {
    for (std::size_t ri = 0; ri < spec.regions.size(); ++ri, ++slot)
      h = mix(h, slot_record_digest(campaign, ck.slots[slot],
                                    ck.adaptive.has_value()));
    ++campaign;
  }
  return h;
}

namespace {

// --- fnv-bin-v1: the whole snapshot as one varint-packed blob ---
//
// The wrapper document stays JSON (format/kind/encoding/digest plus the
// base64 blob), so the one reader dispatches on "encoding" and every
// consumer accepts either. Integrity comes from recomputing the
// whole-document FNV digest over the *decoded* checkpoint and comparing
// it to the wrapper's: any torn, truncated or bit-flipped blob is refused
// exactly like a hand-edited JSON sidecar.

void encode_counts(util::ByteWriter& w, const RegionResult& rr) {
  for_each_count([&](int v) { w.u64(static_cast<std::uint64_t>(v)); }, rr);
}

void decode_counts(util::ByteReader& r, RegionResult& rr) {
  for_each_count([&](int& v) { v = static_cast<int>(r.u64()); }, rr);
}

std::string checkpoint_blob(const Checkpoint& ck) {
  util::ByteWriter w;
  w.u64(1);  // blob layout version
  w.u64(static_cast<std::uint64_t>(ck.shard.index));
  w.u64(static_cast<std::uint64_t>(ck.shard.count));
  w.u64(ck.cursor);
  w.u64(ck.adaptive ? 1 : 0);
  if (ck.adaptive) {
    w.f64(ck.adaptive->ci);
    w.f64(ck.adaptive->alpha);
    w.u64(static_cast<std::uint64_t>(ck.adaptive->wave));
    w.u64(static_cast<std::uint64_t>(ck.adaptive->min_runs));
  }
  w.u64(ck.specs.size());
  for (const CampaignSpec& spec : ck.specs) {
    w.str(spec.app);
    w.u64(static_cast<std::uint64_t>(spec.runs_per_region));
    w.u64(spec.seed);
    w.u64(spec.regions.size());
    for (Region r : spec.regions) w.u64(static_cast<std::uint64_t>(r));
    w.u64(static_cast<std::uint64_t>(spec.dictionary_entries));
    w.u64(static_cast<std::uint64_t>(spec.prune));
    w.u64(static_cast<std::uint64_t>(spec.params.ranks));
    w.u64(static_cast<std::uint64_t>(spec.params.steps));
    w.u64(static_cast<std::uint64_t>(spec.engine));
  }
  w.u64(ck.goldens.size());
  for (const Golden& g : ck.goldens) {
    w.u64(g.instructions);
    w.u64(g.hang_budget);
    w.u64(g.rx_bytes.size());
    for (std::uint64_t b : g.rx_bytes) w.u64(b);
  }
  w.u64(ck.slots.size());
  for (const CheckpointSlot& cs : ck.slots) {
    w.u64(static_cast<std::uint64_t>(cs.counts.region));
    w.u64(cs.done.ranges().size());
    for (const auto& [first, last] : cs.done.ranges()) {
      w.u64(static_cast<std::uint64_t>(first));
      w.u64(static_cast<std::uint64_t>(last));
    }
    encode_counts(w, cs.counts);
    if (ck.adaptive) {
      w.u64(static_cast<std::uint64_t>(cs.frontier));
      w.u64(cs.stopped ? 1 : 0);
    }
  }
  return w.take();
}

Region decode_region(std::uint64_t v) {
  if (v >= kNumRegions)
    throw util::SetupError("checkpoint: blob names an unknown region");
  return static_cast<Region>(v);
}

Checkpoint parse_checkpoint_blob(const std::string& blob,
                                 std::uint64_t expected_digest) {
  util::ByteReader r(blob);
  if (r.u64() != 1)
    throw util::SetupError("checkpoint: unknown fnv-bin-v1 blob version");
  Checkpoint ck;
  ck.shard.index = static_cast<int>(r.u64());
  ck.shard.count = static_cast<int>(r.u64());
  ck.cursor = r.u64();
  if (r.u64() != 0) {
    AdaptivePolicy policy;
    policy.ci = r.f64();
    policy.alpha = r.f64();
    policy.wave = static_cast<int>(r.u64());
    policy.min_runs = static_cast<int>(r.u64());
    ck.adaptive = policy;
  }
  const std::uint64_t nspecs = r.u64();
  for (std::uint64_t c = 0; c < nspecs; ++c) {
    CampaignSpec spec;
    spec.app = r.str();
    spec.runs_per_region = static_cast<int>(r.u64());
    spec.seed = r.u64();
    const std::uint64_t nregions = r.u64();
    for (std::uint64_t i = 0; i < nregions; ++i)
      spec.regions.push_back(decode_region(r.u64()));
    spec.dictionary_entries = static_cast<std::size_t>(r.u64());
    const std::uint64_t prune = r.u64();
    if (prune != static_cast<std::uint64_t>(PruneLevel::kOff) &&
        prune != static_cast<std::uint64_t>(PruneLevel::kFull))
      throw util::SetupError("checkpoint: blob names an unknown prune level");
    spec.prune = static_cast<PruneLevel>(prune);
    spec.params.ranks = static_cast<int>(r.u64());
    spec.params.steps = static_cast<int>(r.u64());
    const std::uint64_t engine = r.u64();
    if (engine > static_cast<std::uint64_t>(svm::exec::EngineKind::kThreaded))
      throw util::SetupError("checkpoint: blob names an unknown engine");
    spec.engine = static_cast<svm::exec::EngineKind>(engine);
    ck.specs.push_back(std::move(spec));
  }
  const std::uint64_t ngoldens = r.u64();
  for (std::uint64_t c = 0; c < ngoldens; ++c) {
    Golden g;
    g.instructions = r.u64();
    g.hang_budget = r.u64();
    const std::uint64_t nranks = r.u64();
    for (std::uint64_t i = 0; i < nranks; ++i) g.rx_bytes.push_back(r.u64());
    ck.goldens.push_back(std::move(g));
  }
  const std::uint64_t nslots = r.u64();
  std::size_t expect_slots = 0;
  for (const auto& spec : ck.specs) expect_slots += spec.regions.size();
  if (nslots != expect_slots || ck.goldens.size() != ck.specs.size())
    throw util::SetupError("checkpoint: blob slot layout is corrupted");
  for (std::uint64_t s = 0; s < nslots; ++s) {
    CheckpointSlot cs;
    cs.counts.region = decode_region(r.u64());
    const std::uint64_t nranges = r.u64();
    for (std::uint64_t i = 0; i < nranges; ++i) {
      const int first = static_cast<int>(r.u64());
      const int last = static_cast<int>(r.u64());
      cs.done.append_range(first, last);
    }
    decode_counts(r, cs.counts);
    if (ck.adaptive) {
      cs.frontier = static_cast<int>(r.u64());
      cs.stopped = r.u64() != 0;
    }
    ck.slots.push_back(std::move(cs));
  }
  if (!r.done())
    throw util::SetupError("checkpoint: trailing bytes after the blob");
  if (checkpoint_digest(ck) != expected_digest)
    throw util::SetupError(
        "checkpoint: document digest mismatch (file corrupted or "
        "hand-edited)");
  return ck;
}

Checkpoint parse_checkpoint(const util::JsonValue& doc) {
  const util::JsonValue* f = doc.find("format");
  if (!f || f->as_string() != kBatchFormatV2)
    throw util::SetupError(
        "not an fsim checkpoint (missing format: fsim-batch-v2)");
  const util::JsonValue* k = doc.find("kind");
  if (k && k->as_string() == "result")
    throw util::SetupError(
        "document is a result export, not a checkpoint: merge, resume and "
        "status read checkpoints (a shard's default output or its "
        "--checkpoint sidecar)");
  if (!k || k->as_string() != "checkpoint")
    throw util::SetupError(
        "fsim-batch-v2 document is not a checkpoint (kind: " +
        (k ? k->as_string() : std::string("<missing>")) + ")");
  // Compact encoding: the entire snapshot lives in the digested blob.
  if (const util::JsonValue* enc = doc.find("encoding")) {
    if (enc->as_string() != "fnv-bin-v1")
      throw util::SetupError("checkpoint: unknown encoding '" +
                             enc->as_string() + "'");
    return parse_checkpoint_blob(
        util::base64_decode(doc.at("data").as_string()),
        doc.at("digest").as_u64());
  }

  Checkpoint ck;
  const util::JsonValue& shard = doc.at("shard");
  ck.shard.index = shard.at("index").as_i32();
  ck.shard.count = shard.at("count").as_i32();
  ck.cursor = doc.at("cursor").as_u64();
  // Optional adaptive stopping policy (absent in fixed-n checkpoints).
  if (const util::JsonValue* av = doc.find("adaptive")) {
    AdaptivePolicy policy;
    policy.ci = av->at("ci").as_double();
    policy.alpha = av->at("alpha").as_double();
    policy.wave = av->at("wave").as_i32();
    policy.min_runs = av->at("min_runs").as_i32();
    ck.adaptive = policy;
  }
  for (const auto& cv : doc.at("campaigns").items()) {
    ck.specs.push_back(read_campaign_spec(cv.at("spec")));
    ck.goldens.push_back(read_golden_json(cv.at("golden")));
  }

  // Slots with no record are simply empty (nothing completed yet).
  for (const auto& spec : ck.specs)
    for (Region r : spec.regions) ck.slots.emplace_back().counts.region = r;
  std::vector<bool> seen(ck.slots.size(), false);
  for (const auto& sv : doc.at("slots").items()) {
    const std::size_t campaign =
        static_cast<std::size_t>(sv.at("campaign").as_int());
    if (campaign >= ck.specs.size())
      throw util::SetupError("checkpoint: slot names campaign " +
                             std::to_string(campaign) + " of " +
                             std::to_string(ck.specs.size()));
    const Region region = parse_region(sv.at("region").as_string());
    const auto& regions = ck.specs[campaign].regions;
    const auto rit = std::find(regions.begin(), regions.end(), region);
    if (rit == regions.end())
      throw util::SetupError(
          "checkpoint: slot region is not part of its campaign's spec");
    auto slot = static_cast<std::size_t>(rit - regions.begin());
    for (std::size_t c = 0; c < campaign; ++c)
      slot += ck.specs[c].regions.size();
    if (seen[slot])
      throw util::SetupError("checkpoint: duplicate slot record");
    seen[slot] = true;

    CheckpointSlot& cs = ck.slots[slot];
    for (const auto& rv : sv.at("done").items()) {
      const auto& pair = rv.items();
      if (pair.size() != 2)
        throw util::SetupError("checkpoint: run range is not a pair");
      cs.done.append_range(pair[0].as_i32(), pair[1].as_i32());
    }
    read_region_counts(sv.at("counts"), cs.counts);
    if (ck.adaptive) {
      cs.frontier = sv.at("frontier").as_i32();
      cs.stopped = sv.at("stopped").as_bool();
    }
    if (sv.at("digest").as_u64() !=
        slot_record_digest(campaign, cs, ck.adaptive.has_value()))
      throw util::SetupError(
          "checkpoint: record digest mismatch (file corrupted or "
          "hand-edited)");
  }
  if (doc.at("digest").as_u64() != checkpoint_digest(ck))
    throw util::SetupError(
        "checkpoint: document digest mismatch (file corrupted or "
        "hand-edited)");
  return ck;
}

/// The semantic checks both encodings share, run once the digests verify
/// (a forged document can carry valid digests): the shard and policy are
/// in range, every done index lies inside the grid, counts agree with the
/// done sets and every done set lies inside the committed grid. An
/// adaptive cell's frontier must be exactly its committed size, so it
/// stays inside the grid and is zero in cells other shards own. Without
/// this a forged input would over-count in a merge or a status report.
void require_consistent_done_sets(const Checkpoint& ck) {
  require_valid_shard(ck.shard);
  if (ck.adaptive) require_valid_policy(*ck.adaptive);
  for (const CampaignSpec& spec : ck.specs) {
    require_positive_runs(spec.app, spec.runs_per_region);
    require_distinct_regions(spec.app, spec.regions);
  }
  require_distinct_campaigns(ck.specs);
  const std::string shard = std::to_string(ck.shard.index) + "/" +
                            std::to_string(ck.shard.count);
  const GridSelection committed = ck.committed();
  std::size_t slot = 0;
  for (const CampaignSpec& spec : ck.specs) {
    for (std::size_t ri = 0; ri < spec.regions.size(); ++ri, ++slot) {
      auto fail = [&](const std::string& what) {
        throw util::SetupError("checkpoint: " + spec.app + " " +
                               region_token(spec.regions[ri]) + ": " + what);
      };
      const CheckpointSlot& cs = ck.slots[slot];
      const int last = cs.done.empty() ? -1 : cs.done.ranges().back().second;
      if (last >= spec.runs_per_region)
        fail("run " + std::to_string(last) + " is outside the grid of " +
             std::to_string(spec.runs_per_region) + " runs");
      if (cs.counts.executions != cs.done.size())
        fail("slot counts disagree with its completed-run set");
      // A stopped cell has run at least one wave, so it holds a frontier.
      if (ck.adaptive && (committed.slots[slot].size() != cs.frontier ||
                          (cs.stopped && cs.frontier == 0)))
        fail("wave frontier " + std::to_string(cs.frontier) +
             " lies outside the cell, or the cell belongs to another shard "
             "than " + shard);
      const RunSet stray = cs.done.minus(committed.slots[slot]);
      if (!stray.empty())
        fail("run " + std::to_string(stray.ranges()[0].first) +
             (ck.adaptive ? " lies beyond its cell's wave frontier"
                          : " belongs to another shard than " + shard));
    }
  }
}

}  // namespace

std::string checkpoint_json(const Checkpoint& checkpoint) {
  util::JsonWriter w;
  w.begin_object();
  w.key("format").value(kBatchFormatV2);
  w.key("kind").value("checkpoint");
  w.key("shard").begin_object();
  w.key("index").value(checkpoint.shard.index);
  w.key("count").value(checkpoint.shard.count);
  w.end_object();
  w.key("cursor").value(checkpoint.cursor);
  w.key("completed_runs").value(checkpoint.completed_runs());
  if (checkpoint.adaptive) {
    const AdaptivePolicy& p = *checkpoint.adaptive;
    w.key("adaptive").begin_object();
    w.key("ci").value(p.ci);
    w.key("alpha").value(p.alpha);
    w.key("wave").value(p.wave);
    w.key("min_runs").value(p.min_runs);
    w.end_object();
  }
  w.key("campaigns").begin_array();
  for (std::size_t c = 0; c < checkpoint.specs.size(); ++c) {
    w.begin_object();
    w.key("spec");
    write_campaign_spec(w, checkpoint.specs[c]);
    w.key("golden");
    write_golden_json(w, checkpoint.goldens[c]);
    w.end_object();
  }
  w.end_array();
  w.key("slots").begin_array();
  std::size_t slot = 0;
  for (std::size_t campaign = 0; campaign < checkpoint.specs.size();
       ++campaign) {
    for (std::size_t ri = 0; ri < checkpoint.specs[campaign].regions.size();
         ++ri, ++slot) {
      const CheckpointSlot& cs = checkpoint.slots[slot];
      // Slots with no state are omitted. An adaptive cell with a committed
      // frontier (or a stop decision) is state even before any run finishes:
      // losing it would replay a different wave schedule after a crash.
      if (cs.done.empty() && !(checkpoint.adaptive && (cs.frontier > 0 ||
                                                       cs.stopped)))
        continue;
      w.begin_object();
      w.key("campaign").value(static_cast<int>(campaign));
      w.key("region").value(region_token(cs.counts.region));
      w.key("done").begin_array();
      for (const auto& [first, last] : cs.done.ranges()) {
        w.begin_array();
        w.value(first);
        w.value(last);
        w.end_array();
      }
      w.end_array();
      w.key("counts");
      w.begin_object();
      write_region_counts(w, cs.counts);
      w.end_object();
      if (checkpoint.adaptive) {
        w.key("frontier").value(cs.frontier);
        w.key("stopped").value(cs.stopped);
      }
      w.key("digest").value(
          slot_record_digest(campaign, cs, checkpoint.adaptive.has_value()));
      w.end_object();
    }
  }
  w.end_array();
  w.key("digest").value(checkpoint_digest(checkpoint));
  w.end_object();
  return w.str();
}

Checkpoint parse_checkpoint_json(const std::string& text) {
  Checkpoint ck = parse_checkpoint(util::parse_json(text));
  require_consistent_done_sets(ck);
  return ck;
}

std::string checkpoint_serialize(const Checkpoint& checkpoint,
                                 CheckpointEncoding encoding) {
  if (encoding == CheckpointEncoding::kJson)
    return checkpoint_json(checkpoint);
  util::JsonWriter w;
  w.begin_object();
  w.key("format").value(kBatchFormatV2);
  w.key("kind").value("checkpoint");
  w.key("encoding").value("fnv-bin-v1");
  w.key("completed_runs").value(checkpoint.completed_runs());
  w.key("data").value(util::base64_encode(checkpoint_blob(checkpoint)));
  w.key("digest").value(checkpoint_digest(checkpoint));
  w.end_object();
  return w.str();
}

// --- GridSelection ---

std::uint64_t GridSelection::total() const noexcept {
  std::uint64_t n = 0;
  for (const RunSet& s : slots) n += static_cast<std::uint64_t>(s.size());
  return n;
}

GridSelection shard_selection(const std::vector<CampaignSpec>& specs,
                              ShardSpec shard, bool by_cell) {
  GridSelection sel;
  std::uint64_t g = 0;
  for (const CampaignSpec& spec : specs) {
    for (std::size_t ri = 0; ri < spec.regions.size(); ++ri) {
      const std::size_t slot = sel.slots.size();
      RunSet& runs = sel.slots.emplace_back();
      for (int i = 0; i < spec.runs_per_region; ++i, ++g)
        if (by_cell ? shard_owns_cell(slot, shard) : shard_owns(g, shard))
          runs.insert(i);  // appends or extends
    }
  }
  return sel;
}

// --- Status ---

CheckpointStatus checkpoint_status(const Checkpoint& ck) {
  CheckpointStatus st;
  st.shard = ck.shard;
  st.adaptive = ck.adaptive.has_value();
  st.complete = ck.complete();
  st.done = ck.completed_runs();
  st.owned = ck.owned_runs();
  st.digest = checkpoint_digest(ck);

  // Per-slot denominators: the committed grid.
  const GridSelection committed = ck.committed();
  std::size_t slot = 0;
  for (const auto& spec : ck.specs) {
    for (std::size_t ri = 0; ri < spec.regions.size(); ++ri, ++slot) {
      CheckpointStatus::Row row;
      row.app = spec.app;
      row.region = spec.regions[ri];
      row.done = ck.slots[slot].done.size();
      row.frontier = ck.slots[slot].frontier;
      row.stopped = ck.slots[slot].stopped;
      row.owned = committed.slots[slot].size();
      st.rows.push_back(std::move(row));
    }
  }
  return st;
}

std::string format_checkpoint_status(const CheckpointStatus& st) {
  util::Table t(std::string("Campaign Status (shard ") +
                std::to_string(st.shard.index) + "/" +
                std::to_string(st.shard.count) +
                (st.adaptive ? ", adaptive)" : ")"));
  std::vector<std::string> head = {"App", "Region", "Done", "Owned",
                                   "Remaining"};
  if (st.adaptive) {
    head.push_back("Frontier");
    head.push_back("Stopped");
  }
  t.header(std::move(head));
  for (const auto& row : st.rows) {
    std::vector<std::string> cells = {
        row.app,
        region_name(row.region),
        std::to_string(row.done),
        std::to_string(row.owned),
        std::to_string(row.owned > row.done ? row.owned - row.done : 0),
    };
    if (st.adaptive) {
      cells.push_back(std::to_string(row.frontier));
      cells.push_back(row.stopped ? "yes" : "no");
    }
    t.row(std::move(cells));
  }
  std::string out = t.ascii();
  out += "done " + std::to_string(st.done) + " of " + std::to_string(st.owned);
  out += st.complete ? " (complete)" : " (in progress)";
  out += ", digest " + std::to_string(st.digest) + "\n";
  return out;
}

BatchResult checkpoint_to_batch(const Checkpoint& checkpoint) {
  BatchResult result;
  result.shard = checkpoint.shard;
  result.specs = checkpoint.specs;
  std::size_t slot = 0;
  for (std::size_t c = 0; c < checkpoint.specs.size(); ++c) {
    const CampaignSpec& spec = checkpoint.specs[c];
    CampaignResult campaign;
    campaign.app = spec.app;
    campaign.seed = spec.seed;
    campaign.golden = checkpoint.goldens[c];
    for (std::size_t ri = 0; ri < spec.regions.size(); ++ri, ++slot) {
      RegionResult rr = checkpoint.slots[slot].counts;
      rr.region = spec.regions[ri];
      campaign.regions.push_back(std::move(rr));
    }
    result.campaigns.push_back(std::move(campaign));
  }
  return result;
}

Checkpoint batch_to_checkpoint(const BatchResult& result,
                               const std::optional<AdaptivePolicy>& adaptive) {
  std::vector<Golden> goldens;
  for (const CampaignResult& campaign : result.campaigns)
    goldens.push_back(campaign.golden);
  Checkpoint ck = make_checkpoint(result.specs, std::move(goldens),
                                  result.shard);
  ck.adaptive = adaptive;
  const GridSelection owned =
      shard_selection(result.specs, result.shard, adaptive.has_value());
  std::uint64_t base = 0;  // grid index of the slot's run 0
  std::size_t slot = 0;
  for (std::size_t c = 0; c < result.specs.size(); ++c) {
    for (const RegionResult& rr : result.campaigns[c].regions) {
      CheckpointSlot& cs = ck.slots[slot];
      cs.counts = rr;
      cs.done = owned.slots[slot];
      if (adaptive && !cs.done.empty()) {
        // An owned cell ends stopped, committed up to its last run.
        cs.frontier = rr.executions;
        cs.stopped = true;
        cs.done = cs.done.below(cs.frontier);
      }
      // Slots run in grid order, so the last non-empty one sets the cursor.
      if (!cs.done.empty())
        ck.cursor = base +
                    static_cast<std::uint64_t>(cs.done.ranges().back().second) +
                    1;
      base += static_cast<std::uint64_t>(result.specs[c].runs_per_region);
      ++slot;
    }
  }
  return ck;
}

// --- CheckpointSink ---

CheckpointSink::CheckpointSink(std::string path, int every,
                               Checkpoint initial, CampaignObserver* notify,
                               CheckpointEncoding encoding)
    : path_(std::move(path)),
      every_(every),
      checkpoint_(std::move(initial)),
      notify_(notify),
      encoding_(encoding) {
  if (every_ < 1)
    throw util::SetupError("checkpoint interval must be >= 1, got " +
                           std::to_string(every_));
}

void CheckpointSink::on_run_done(const RunEvent& event) {
  CheckpointSlot& slot = checkpoint_.slots[event.slot];
  accumulate_outcome(slot.counts, *event.outcome);
  slot.done.insert(event.run_index);
  if (event.grid_index + 1 > checkpoint_.cursor)
    checkpoint_.cursor = event.grid_index + 1;
  if (++pending_ >= every_) write();
}

void CheckpointSink::flush() { write(); }

void CheckpointSink::update_cell(std::size_t slot, int frontier,
                                 bool stopped) {
  CheckpointSlot& cs = checkpoint_.slots[slot];
  cs.frontier = frontier;
  cs.stopped = stopped;
}

void CheckpointSink::write() {
  util::write_file_atomic(path_,
                          checkpoint_serialize(checkpoint_, encoding_) + "\n");
  pending_ = 0;
  if (notify_) notify_->on_checkpoint(path_, checkpoint_.completed_runs());
}

}  // namespace fsim::core
