#include "core/adaptive.hpp"

#include <algorithm>
#include <memory>

#include "core/report.hpp"
#include "core/sampling.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

namespace fsim::core {

namespace {

const char* stop_token(CellStop stop) {
  switch (stop) {
    case CellStop::kTarget: return "target";
    case CellStop::kCapped: return "cap";
    case CellStop::kOpen: break;
  }
  return "open";
}

/// Waves a cell needed to reach `scheduled`: every wave extends the
/// frontier by `wave` grid points (clipped at the cap), so this is a pure
/// function of the frontier — identical across kill/resume replays, which
/// re-run the partial wave without re-counting it.
int waves_of(int scheduled, int wave) {
  return (scheduled + wave - 1) / wave;
}

}  // namespace

AdaptiveResult run_adaptive(const std::vector<BatchEntry>& entries,
                            const AdaptiveConfig& config) {
  require_valid_shard(config.shard);
  require_valid_policy(config.policy);
  if (config.selection)
    throw util::SetupError(
        "adaptive: explicit grid selections are not supported (waves are "
        "data-dependent)");
  const AdaptivePolicy& policy = config.policy;

  BatchSession session(entries, config.jobs);
  const std::size_t ncamp = entries.size();
  const std::size_t nslots = session.slots();

  AdaptiveResult result;
  result.policy = policy;
  result.batch.shard = config.shard;
  result.batch.specs = session.specs();

  // Per-slot coordinates and caps (the campaign's runs_per_region).
  std::vector<std::size_t> campaign_of(nslots, 0);
  std::vector<std::size_t> region_index_of(nslots, 0);
  std::vector<int> cap(nslots, 0);
  for (std::size_t c = 0; c < ncamp; ++c) {
    const CampaignConfig& cc = entries[c].config;
    for (std::size_t ri = 0; ri < cc.regions.size(); ++ri) {
      const std::size_t slot = session.slot_of(c, ri);
      campaign_of[slot] = c;
      region_index_of[slot] = ri;
      cap[slot] = cc.runs_per_region;
    }
  }

  // Resume baseline: an adaptive checkpoint of this exact batch (its
  // frontiers are the wave state we replay from). The *policy* is taken
  // from config — callers reuse the recorded one unless the user
  // explicitly overrides it.
  const Checkpoint* resume = config.resume;
  if (resume)
    require_same_batch("resume", *resume, true, config.shard,
                       result.batch.specs, session.goldens());

  // Cell state. The resume baseline's counts fold in *up front* (unlike
  // run_batch, which folds at the end): stopping decisions must see the
  // cumulative per-cell counts, and integer sums commute either way.
  std::vector<CellStatus> cells(nslots);
  std::vector<RegionResult> totals(nslots);
  std::vector<int> done(nslots, 0);
  std::vector<int> frontier(nslots, 0);  // RunEvent denominators
  for (std::size_t s = 0; s < nslots; ++s) {
    cells[s].campaign = campaign_of[s];
    cells[s].region =
        entries[campaign_of[s]].config.regions[region_index_of[s]];
    cells[s].owned = shard_owns_cell(s, config.shard);
    if (resume) {
      merge_region_counts(totals[s], resume->slots[s].counts);
      done[s] = resume->slots[s].counts.executions;
      cells[s].scheduled = resume->slots[s].frontier;
      frontier[s] = cells[s].scheduled;
    }
  }

  // Checkpoint sink, seeded with the policy: adaptive sidecars record the
  // stopping rule and each cell's frontier alongside the usual state.
  std::unique_ptr<CheckpointSink> sink;
  if (!config.checkpoint_path.empty()) {
    Checkpoint initial =
        resume ? *resume
               : make_checkpoint(result.batch.specs, session.goldens(),
                                 config.shard);
    initial.adaptive = policy;  // an override replaces the recorded policy
    sink = std::make_unique<CheckpointSink>(config.checkpoint_path,
                                            config.checkpoint_every,
                                            std::move(initial),
                                            config.observer,
                                            config.checkpoint_encoding);
  }

  // Per-run fan-in (serialized by the session). on_region_done is *not*
  // derived from done == total here — a cell is only finished when its
  // interval says so; the wave loop below fires it at stop time.
  BatchSession::Notify notify;
  if (config.observer || sink) {
    notify = [&config, &sink](const RunEvent& ev) {
      if (config.observer) config.observer->on_run_done(ev);
      if (sink) sink->on_run_done(ev);
    };
  }

  // Catch-up: finish the partial frontier wave of a resumed campaign.
  // After this, every cell sits at a wave boundary with exactly the counts
  // the uninterrupted run had there, so the re-evaluated decisions below
  // reproduce the uninterrupted schedule.
  if (resume) {
    std::vector<BatchSession::Point> points;
    for (std::size_t s = 0; s < nslots; ++s) {
      if (!cells[s].owned) continue;
      for (int i = 0; i < cells[s].scheduled; ++i) {
        if (resume->slots[s].done.contains(i)) continue;
        points.push_back(BatchSession::Point{
            campaign_of[s], region_index_of[s], i,
            session.grid_index_of(campaign_of[s], region_index_of[s], i)});
      }
    }
    session.run_points(points, totals, done, frontier, notify);
  }

  // Wave loop: evaluate every open cell at its boundary, stop the resolved
  // ones, extend the rest by one wave, execute, repeat. Decisions depend
  // only on per-cell integer counts at boundaries, so the schedule is a
  // pure function of (entries, policy, shard) — bit-identical at any
  // --jobs and across kill/resume.
  while (true) {
    for (std::size_t s = 0; s < nslots; ++s) {
      CellStatus& cell = cells[s];
      if (!cell.owned || cell.stop != CellStop::kOpen) continue;
      const auto n = static_cast<std::uint64_t>(totals[s].executions);
      const auto errors = static_cast<std::uint64_t>(totals[s].errors());
      cell.half_width = wilson_half_width(policy.alpha, errors, n);
      if (ci_target_met(policy.alpha, errors, n, policy.ci,
                        static_cast<std::uint64_t>(policy.min_runs))) {
        cell.stop = CellStop::kTarget;
      } else if (cell.scheduled >= cap[s]) {
        cell.stop = CellStop::kCapped;
      } else {
        continue;
      }
      if (sink) sink->update_cell(s, cell.scheduled, true);
      if (config.observer)
        config.observer->on_region_done(cell.campaign,
                                        entries[cell.campaign].app.name,
                                        cell.region, totals[s].executions);
    }

    std::vector<BatchSession::Point> points;
    for (std::size_t s = 0; s < nslots; ++s) {
      CellStatus& cell = cells[s];
      if (!cell.owned || cell.stop != CellStop::kOpen) continue;
      const int from = cell.scheduled;
      const int to = std::min(from + policy.wave, cap[s]);
      for (int i = from; i < to; ++i)
        points.push_back(BatchSession::Point{
            campaign_of[s], region_index_of[s], i,
            session.grid_index_of(campaign_of[s], region_index_of[s], i)});
      cell.scheduled = to;
      frontier[s] = to;
      // Commit the frontier to the checkpoint image *before* the wave
      // runs: any snapshot then satisfies done ⊆ [0, frontier), and a
      // crash mid-wave resumes by finishing exactly this wave.
      if (sink) sink->update_cell(s, to, false);
    }
    if (points.empty()) break;
    session.run_points(points, totals, done, frontier, notify);
  }

  // Leave a final checkpoint behind: every owned cell stopped with its
  // frontier executed, so the file parses as complete.
  if (sink) sink->flush();

  result.batch.campaigns = session.attach_regions(totals);
  for (std::size_t s = 0; s < nslots; ++s) {
    cells[s].waves = waves_of(cells[s].scheduled, policy.wave);
    if (cells[s].owned) {
      result.total_runs += static_cast<std::uint64_t>(cells[s].scheduled);
      result.pruned_runs += static_cast<std::uint64_t>(totals[s].pruned);
    }
  }
  result.cells = std::move(cells);
  return result;
}

std::string format_adaptive(const AdaptiveResult& result) {
  util::Table t("Adaptive Stopping (target ±" +
                util::fmt_fixed(100.0 * result.policy.ci, 1) + " pts at " +
                util::fmt_fixed(100.0 * (1.0 - result.policy.alpha), 0) +
                "% confidence, wave " + std::to_string(result.policy.wave) +
                ")");
  t.header({"App", "Region", "Runs", "Cap", "Errors (%)", "±CI (pts)",
            "Waves", "Stopped"});

  std::size_t slot = 0;
  std::uint64_t fixed_equivalent = 0;
  for (std::size_t c = 0; c < result.batch.campaigns.size(); ++c) {
    const CampaignResult& campaign = result.batch.campaigns[c];
    const int cap = result.batch.specs[c].runs_per_region;
    for (const auto& rr : campaign.regions) {
      const CellStatus& cell = result.cells[slot++];
      if (!cell.owned) {
        t.row({campaign.app, region_name(rr.region), "-",
               std::to_string(cap), "-", "-", "-", "other shard"});
        continue;
      }
      fixed_equivalent += static_cast<std::uint64_t>(cap);
      t.row({
          campaign.app,
          region_name(rr.region),
          std::to_string(rr.executions),
          std::to_string(cap),
          util::fmt_fixed(100.0 * rr.error_rate(), 1),
          util::fmt_fixed(100.0 * cell.half_width, 1),
          std::to_string(cell.waves),
          stop_token(cell.stop),
      });
    }
  }
  std::string out = t.ascii();
  out += "Injected runs: " + std::to_string(result.total_runs) +
         " of the " + std::to_string(fixed_equivalent) +
         " a fixed-n campaign would execute";
  if (fixed_equivalent > 0 && result.total_runs > 0) {
    out += " (";
    out += util::fmt_fixed(static_cast<double>(fixed_equivalent) /
                               static_cast<double>(result.total_runs),
                           1);
    out += "x fewer)";
  }
  out += "; ";
  out += std::to_string(result.pruned_runs);
  out += " of them decided statically\n";
  return out;
}

std::string adaptive_json(const AdaptiveResult& result) {
  return batch_json(result.batch, [&](util::JsonWriter& w) {
    w.key("adaptive").begin_object();
    w.key("policy").begin_object();
    w.key("ci").value(result.policy.ci);
    w.key("alpha").value(result.policy.alpha);
    w.key("wave").value(result.policy.wave);
    w.key("min_runs").value(result.policy.min_runs);
    w.end_object();
    w.key("total_runs").value(result.total_runs);
    w.key("pruned_runs").value(result.pruned_runs);
    w.key("cells").begin_array();
    std::size_t slot = 0;
    for (std::size_t c = 0; c < result.batch.campaigns.size(); ++c) {
      const CampaignResult& campaign = result.batch.campaigns[c];
      for (const auto& rr : campaign.regions) {
        const CellStatus& cell = result.cells[slot++];
        w.begin_object();
        w.key("campaign").value(static_cast<int>(c));
        w.key("region").value(region_name(rr.region));
        w.key("owned").value(cell.owned);
        if (cell.owned) {
          w.key("runs").value(rr.executions);
          w.key("cap").value(result.batch.specs[c].runs_per_region);
          w.key("errors").value(rr.errors());
          w.key("error_rate").value(rr.error_rate());
          w.key("half_width").value(cell.half_width);
          w.key("waves").value(cell.waves);
          w.key("stop").value(stop_token(cell.stop));
        }
        w.end_object();
      }
    }
    w.end_array();
    w.end_object();
  });
}

}  // namespace fsim::core
