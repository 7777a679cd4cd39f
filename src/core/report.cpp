#include "core/report.hpp"

#include <sstream>

#include "core/sampling.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace fsim::core {

namespace {

/// Campaign result object body, shared by campaign_json and batch_json.
void write_campaign(util::JsonWriter& w, const CampaignResult& result) {
  w.begin_object();
  w.key("app").value(result.app);
  w.key("seed").value(static_cast<std::uint64_t>(result.seed));
  w.key("golden").begin_object();
  w.key("instructions").value(result.golden.instructions);
  w.key("hang_budget").value(result.golden.hang_budget);
  w.key("rx_bytes_per_rank").begin_array();
  for (std::uint64_t b : result.golden.rx_bytes) w.value(b);
  w.end_array();
  w.end_object();

  w.key("regions").begin_array();
  for (const auto& rr : result.regions) {
    w.begin_object();
    w.key("region").value(region_name(rr.region));
    w.key("executions").value(rr.executions);
    w.key("skipped").value(rr.skipped);
    w.key("errors").value(rr.errors());
    w.key("error_rate").value(rr.error_rate());
    if (rr.executions > 0) {
      w.key("estimation_error_95pct")
          .value(estimation_error(0.05,
                                  static_cast<std::uint64_t>(rr.executions)));
      // Measured-rate Wilson half-width (docs/STATISTICS.md): unlike the
      // worst-case a-priori bound above, this narrows as p̂ leaves 0.5.
      w.key("error_ci95")
          .value(wilson_half_width(
              0.05, static_cast<std::uint64_t>(rr.errors()),
              static_cast<std::uint64_t>(rr.executions)));
    }
    w.key("manifestations").begin_object();
    for (unsigned m = 0; m < kNumManifestations; ++m) {
      w.key(manifestation_name(static_cast<Manifestation>(m)))
          .value(rr.counts[m]);
    }
    w.end_object();
    w.key("crash_kinds").begin_object();
    for (unsigned k = 1; k < kNumCrashKinds; ++k) {
      if (rr.crash_kinds[k] == 0) continue;
      w.key(crash_kind_name(static_cast<CrashKind>(k))).value(rr.crash_kinds[k]);
    }
    w.end_object();
    w.key("pruned").value(rr.pruned);
    if (rr.pruned > 0) {
      // Diagnostic breakdown by deciding precision-ladder rung; zero rungs
      // are omitted and readers default absent keys to zero.
      w.key("pruned_rungs").begin_object();
      for (unsigned r = 1; r < kNumPruneRungs; ++r) {
        if (rr.pruned_rungs[r] == 0) continue;
        w.key(prune_rung_token(static_cast<PruneRung>(r)))
            .value(rr.pruned_rungs[r]);
      }
      w.end_object();
    }
    if (rr.act_executions[0] + rr.act_executions[1] > 0) {
      w.key("activation").begin_object();
      const char* names[2] = {"live", "dead"};
      for (unsigned a = 0; a < 2; ++a) {
        w.key(names[a]).begin_object();
        w.key("executions").value(rr.act_executions[a]);
        w.key("manifestations").begin_object();
        for (unsigned m = 0; m < kNumManifestations; ++m) {
          w.key(manifestation_name(static_cast<Manifestation>(m)))
              .value(rr.act_counts[a][m]);
        }
        w.end_object();
        w.end_object();
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string campaign_json(const CampaignResult& result) {
  util::JsonWriter w;
  write_campaign(w, result);
  return w.str();
}

namespace {

void csv_header(std::ostringstream& os) {
  os << "app,region,executions,errors,error_rate";
  for (unsigned m = 0; m < kNumManifestations; ++m)
    os << ',' << manifestation_name(static_cast<Manifestation>(m));
  // New columns only ever append here: downstream scripts key on prefixes.
  os << ",pruned,act_live,act_dead,error_ci95\n";
}

void csv_rows(std::ostringstream& os, const CampaignResult& result) {
  for (const auto& rr : result.regions) {
    os << result.app << ',' << region_name(rr.region) << ',' << rr.executions
       << ',' << rr.errors() << ',' << rr.error_rate();
    for (unsigned m = 0; m < kNumManifestations; ++m)
      os << ',' << rr.counts[m];
    os << ',' << rr.pruned << ',' << rr.act_executions[0] << ','
       << rr.act_executions[1] << ','
       << wilson_half_width(0.05, static_cast<std::uint64_t>(rr.errors()),
                            static_cast<std::uint64_t>(rr.executions))
       << '\n';
  }
}

}  // namespace

std::string campaign_csv(const CampaignResult& result) {
  std::ostringstream os;
  csv_header(os);
  csv_rows(os, result);
  return os.str();
}

std::string batch_csv(const BatchResult& result) {
  std::ostringstream os;
  csv_header(os);
  for (const auto& campaign : result.campaigns) csv_rows(os, campaign);
  return os.str();
}

std::uint64_t region_counts_digest(const RegionResult& rr, std::uint64_t h) {
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(rr.executions));
  mix(static_cast<std::uint64_t>(rr.skipped));
  for (int c : rr.counts) mix(static_cast<std::uint64_t>(c));
  for (int k : rr.crash_kinds) mix(static_cast<std::uint64_t>(k));
  mix(static_cast<std::uint64_t>(rr.pruned));
  for (unsigned a = 0; a < 2; ++a) {
    mix(static_cast<std::uint64_t>(rr.act_executions[a]));
    for (int c : rr.act_counts[a]) mix(static_cast<std::uint64_t>(c));
  }
  return h;
}

std::uint64_t aggregate_digest(const CampaignResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(result.seed);
  for (const auto& rr : result.regions) {
    mix(static_cast<std::uint64_t>(rr.region));
    h = region_counts_digest(rr, h);
  }
  return h;
}

std::uint64_t batch_digest(const BatchResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& campaign : result.campaigns) {
    h ^= aggregate_digest(campaign);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t outcome_digest(const BatchResult& result) {
  // Like batch_digest, but deliberately excluding `pruned`/`pruned_rungs`:
  // those count *how* runs were decided, which differs across prune levels
  // by construction, while everything mixed here — executions, skipped,
  // manifestation counts, crash kinds, activation splits — is what pruning
  // must preserve. Equal outcome digests across --prune levels are the
  // soundness oracle the ci prune×engine matrix asserts.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const auto& campaign : result.campaigns) {
    mix(campaign.seed);
    for (const auto& rr : campaign.regions) {
      mix(static_cast<std::uint64_t>(rr.region));
      mix(static_cast<std::uint64_t>(rr.executions));
      mix(static_cast<std::uint64_t>(rr.skipped));
      for (int c : rr.counts) mix(static_cast<std::uint64_t>(c));
      for (int k : rr.crash_kinds) mix(static_cast<std::uint64_t>(k));
      for (unsigned a = 0; a < 2; ++a) {
        mix(static_cast<std::uint64_t>(rr.act_executions[a]));
        for (int c : rr.act_counts[a]) mix(static_cast<std::uint64_t>(c));
      }
    }
  }
  return h;
}

namespace {

/// Spec "prune" values: the level name ("off" | "full").
PruneLevel read_prune(const util::JsonValue& v) {
  if (auto level = parse_prune_level(v.as_string())) return *level;
  throw util::SetupError("unknown prune level '" + v.as_string() + "'");
}

}  // namespace

void write_campaign_spec(util::JsonWriter& w, const CampaignSpec& spec) {
  w.begin_object();
  w.key("app").value(spec.app);
  w.key("runs_per_region").value(spec.runs_per_region);
  w.key("seed").value(spec.seed);
  w.key("regions").begin_array();
  for (Region r : spec.regions) w.value(region_token(r));
  w.end_array();
  w.key("dictionary_entries")
      .value(static_cast<std::uint64_t>(spec.dictionary_entries));
  w.key("prune").value(prune_level_name(spec.prune));
  w.key("engine").value(svm::exec::engine_name(spec.engine));
  if (spec.params.ranks) w.key("ranks").value(spec.params.ranks);
  if (spec.params.steps) w.key("steps").value(spec.params.steps);
  w.end_object();
}

CampaignSpec read_campaign_spec(const util::JsonValue& v) {
  CampaignSpec spec;
  spec.app = v.at("app").as_string();
  spec.runs_per_region = v.at("runs_per_region").as_i32();
  spec.seed = v.at("seed").as_u64();
  for (const auto& r : v.at("regions").items())
    spec.regions.push_back(parse_region(r.as_string()));
  spec.dictionary_entries =
      static_cast<std::size_t>(v.at("dictionary_entries").as_u64());
  spec.prune = read_prune(v.at("prune"));
  // Engine is a reporting tag, not identity (results are bit-identical
  // across engines); documents that predate it default to threaded.
  if (const auto* f = v.find("engine")) {
    if (auto kind = svm::exec::parse_engine_kind(f->as_string()))
      spec.engine = *kind;
    else
      throw util::SetupError("unknown engine '" + f->as_string() + "'");
  }
  // Absent app params mean the app's defaults.
  if (const auto* f = v.find("ranks"))
    spec.params.ranks = f->as_i32();
  if (const auto* f = v.find("steps"))
    spec.params.steps = f->as_i32();
  return spec;
}

void write_golden_json(util::JsonWriter& w, const Golden& golden) {
  w.begin_object();
  w.key("instructions").value(golden.instructions);
  w.key("hang_budget").value(golden.hang_budget);
  w.key("rx_bytes_per_rank").begin_array();
  for (std::uint64_t b : golden.rx_bytes) w.value(b);
  w.end_array();
  w.end_object();
}

Golden read_golden_json(const util::JsonValue& v) {
  Golden golden;
  golden.instructions = v.at("instructions").as_u64();
  golden.hang_budget = v.at("hang_budget").as_u64();
  for (const auto& b : v.at("rx_bytes_per_rank").items())
    golden.rx_bytes.push_back(b.as_u64());
  return golden;
}

void write_region_counts(util::JsonWriter& w, const RegionResult& rr) {
  w.key("executions").value(rr.executions);
  w.key("skipped").value(rr.skipped);
  w.key("manifestations").begin_array();
  for (int c : rr.counts) w.value(c);
  w.end_array();
  w.key("crash_kinds").begin_array();
  for (int k : rr.crash_kinds) w.value(k);
  w.end_array();
  w.key("pruned").value(rr.pruned);
  w.key("pruned_rungs").begin_array();
  for (int c : rr.pruned_rungs) w.value(c);
  w.end_array();
  w.key("act_executions").begin_array();
  for (int e : rr.act_executions) w.value(e);
  w.end_array();
  w.key("act_manifestations").begin_array();
  for (const auto& row : rr.act_counts) {
    w.begin_array();
    for (int c : row) w.value(c);
    w.end_array();
  }
  w.end_array();
}

void read_region_counts(const util::JsonValue& v, RegionResult& rr) {
  auto fixed = [](const util::JsonValue& a, std::size_t n, const char* what) {
    const auto& items = a.items();
    if (items.size() != n)
      throw util::SetupError(std::string("json: expected ") +
                             std::to_string(n) + " " + what + " counts, got " +
                             std::to_string(items.size()));
    return &items;
  };
  rr.executions = v.at("executions").as_i32();
  rr.skipped = v.at("skipped").as_i32();
  {
    const auto* items =
        fixed(v.at("manifestations"), kNumManifestations, "manifestation");
    for (unsigned m = 0; m < kNumManifestations; ++m)
      rr.counts[m] = (*items)[m].as_i32();
  }
  {
    const auto* items =
        fixed(v.at("crash_kinds"), kNumCrashKinds, "crash-kind");
    for (unsigned k = 0; k < kNumCrashKinds; ++k)
      rr.crash_kinds[k] = (*items)[k].as_i32();
  }
  rr.pruned = v.at("pruned").as_i32();
  // Absent in checkpoints written before the precision ladder: all zero.
  // The ladder only ever appends rungs, so a shorter array from an older
  // checkpoint is the prefix of today's: missing tail rungs stay zero.
  if (const util::JsonValue* rungs = v.find("pruned_rungs")) {
    const auto& items = rungs->items();
    if (items.size() > kNumPruneRungs)
      throw util::SetupError("json: expected at most " +
                             std::to_string(kNumPruneRungs) +
                             " prune-rung counts, got " +
                             std::to_string(items.size()));
    for (unsigned r = 0; r < items.size(); ++r)
      rr.pruned_rungs[r] = items[r].as_i32();
  }
  {
    const auto* items = fixed(v.at("act_executions"), 2, "activation");
    for (unsigned a = 0; a < 2; ++a)
      rr.act_executions[a] = (*items)[a].as_i32();
  }
  {
    const auto* rows = fixed(v.at("act_manifestations"), 2, "activation");
    for (unsigned a = 0; a < 2; ++a) {
      const auto* items =
          fixed((*rows)[a], kNumManifestations, "activation manifestation");
      for (unsigned m = 0; m < kNumManifestations; ++m)
        rr.act_counts[a][m] = (*items)[m].as_i32();
    }
  }
}

std::string batch_json(const BatchResult& result,
                       const std::function<void(util::JsonWriter&)>& annex) {
  util::JsonWriter w;
  w.begin_object();
  w.key("format").value(kBatchFormatV2);
  w.key("kind").value("result");
  w.key("shard").begin_object();
  w.key("index").value(result.shard.index);
  w.key("count").value(result.shard.count);
  w.end_object();
  w.key("digest").value(batch_digest(result));
  w.key("outcome_digest").value(outcome_digest(result));
  w.key("campaigns").begin_array();
  for (std::size_t c = 0; c < result.campaigns.size(); ++c) {
    w.begin_object();
    w.key("spec");
    write_campaign_spec(w, c < result.specs.size() ? result.specs[c]
                                                   : CampaignSpec{});
    w.key("digest").value(aggregate_digest(result.campaigns[c]));
    w.key("result");
    write_campaign(w, result.campaigns[c]);
    w.end_object();
  }
  w.end_array();
  // Derived batch-wide per-app activation totals (recomputable from the
  // per-region counts).
  if (const auto summary = batch_activation(result); !summary.empty()) {
    w.key("activation_summary").begin_array();
    for (const auto& row : summary) {
      w.begin_object();
      w.key("app").value(row.app);
      w.key("live_executions").value(row.executions[RegionResult::kLiveIdx]);
      w.key("live_errors").value(row.errors[RegionResult::kLiveIdx]);
      w.key("dead_executions").value(row.executions[RegionResult::kDeadIdx]);
      w.key("dead_errors").value(row.errors[RegionResult::kDeadIdx]);
      w.end_object();
    }
    w.end_array();
  }
  if (annex) annex(w);
  w.end_object();
  return w.str();
}

std::vector<CampaignSpec> parse_batch_spec(const std::string& text) {
  const util::JsonValue doc = util::parse_json(text);
  const CampaignConfig defaults;  // library defaults for unset fields

  // Schema version: the document must say fsim-batch-v2; anything else,
  // a missing key included, is refused rather than misread.
  const util::JsonValue* format = doc.find("format");
  if (format == nullptr)
    throw util::SetupError(
        "batch spec: missing \"format\": \"fsim-batch-v2\"");
  if (format->as_string() != kBatchFormatV2)
    throw util::SetupError("batch spec: unsupported format '" +
                           format->as_string() +
                           "' (expected fsim-batch-v2)");

  auto fill = [](CampaignSpec& spec, const util::JsonValue& v) {
    if (const auto* f = v.find("runs"))
      spec.runs_per_region = f->as_i32();
    if (const auto* f = v.find("seed")) spec.seed = f->as_u64();
    if (const auto* f = v.find("prune")) spec.prune = read_prune(*f);
    if (const auto* f = v.find("dictionary_entries"))
      spec.dictionary_entries = static_cast<std::size_t>(f->as_u64());
    if (const auto* f = v.find("regions")) {
      spec.regions.clear();
      for (const auto& r : f->items())
        spec.regions.push_back(parse_region(r.as_string()));
    }
    if (const auto* f = v.find("engine")) {
      if (auto kind = svm::exec::parse_engine_kind(f->as_string()))
        spec.engine = *kind;
      else
        throw util::SetupError("batch spec: unknown engine '" +
                               f->as_string() + "'");
    }
    if (const auto* f = v.find("ranks"))
      spec.params.ranks = f->as_i32();
    if (const auto* f = v.find("steps"))
      spec.params.steps = f->as_i32();
  };

  CampaignSpec base;
  base.runs_per_region = defaults.runs_per_region;
  base.seed = defaults.seed;
  base.regions = defaults.regions;
  base.dictionary_entries = defaults.dictionary_entries;
  base.prune = defaults.prune;
  base.engine = defaults.engine;
  fill(base, doc);

  std::vector<CampaignSpec> specs;
  for (const auto& cv : doc.at("campaigns").items()) {
    CampaignSpec spec = base;
    spec.app = cv.at("app").as_string();
    fill(spec, cv);
    require_positive_runs(spec.app, spec.runs_per_region);
    require_distinct_regions(spec.app, spec.regions);
    specs.push_back(std::move(spec));
  }
  if (specs.empty())
    throw util::SetupError("batch spec: no campaigns given");
  require_distinct_campaigns(specs);
  return specs;
}

}  // namespace fsim::core
