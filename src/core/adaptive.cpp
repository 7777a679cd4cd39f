#include "core/adaptive.hpp"

#include <algorithm>

#include "core/batch_run.hpp"
#include "core/report.hpp"
#include "core/sampling.hpp"
#include "util/json.hpp"
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
  // BatchRun has already finished the wave a crash interrupted: every cell
  // sits at a wave boundary with exactly the counts the uninterrupted run
  // had there, so the re-evaluated decisions below reproduce its schedule.
  const AdaptivePolicy& policy = config.policy;
  BatchRun::validate(config, policy);
  BatchSession session(entries, config.jobs);
  BatchRun run(session, config, policy);
  const std::vector<CampaignSpec>& specs = session.specs();
  const std::size_t nslots = session.slots();
  const GridSelection owned = shard_selection(specs, config.shard, true);

  // Cell state. A resumed cell starts from its committed frontier.
  std::vector<CellStatus> cells(nslots);
  std::vector<int> cap(nslots, 0);  // the campaign's runs_per_region
  for (std::size_t c = 0; c < specs.size(); ++c) {
    for (std::size_t ri = 0; ri < specs[c].regions.size(); ++ri) {
      const std::size_t s = session.slot_of(c, ri);
      cells[s].campaign = c;
      cells[s].region = specs[c].regions[ri];
      cells[s].owned = !owned.slots[s].empty();
      if (config.resume) cells[s].scheduled = config.resume->slots[s].frontier;
      cap[s] = specs[c].runs_per_region;
    }
  }

  // Wave loop: evaluate every open cell at its boundary, stop the resolved
  // ones, extend the rest by one wave, execute, repeat. Decisions depend
  // only on per-cell integer counts at boundaries, so the schedule is a
  // pure function of (entries, policy, shard) — bit-identical at any
  // --jobs and across kill/resume.
  const std::vector<RegionResult>& totals = run.totals();
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
      run.commit_cell(s, cell.scheduled, true);
      if (config.observer)
        config.observer->on_region_done(cell.campaign,
                                        entries[cell.campaign].app.name,
                                        cell.region, totals[s].executions);
    }

    GridSelection wave;
    wave.slots.resize(nslots);
    for (std::size_t s = 0; s < nslots; ++s) {
      CellStatus& cell = cells[s];
      if (!cell.owned || cell.stop != CellStop::kOpen) continue;
      const int to = std::min(cell.scheduled + policy.wave, cap[s]);
      wave.slots[s].append_range(cell.scheduled, to - 1);
      cell.scheduled = to;
      // Commit the frontier to the checkpoint image *before* the wave
      // runs: any snapshot then satisfies done ⊆ [0, frontier), and a
      // crash mid-wave resumes by finishing exactly this wave.
      run.commit_cell(s, to, false);
    }
    if (wave.empty()) break;
    run.run(wave);
  }

  AdaptiveResult result;
  result.policy = policy;
  for (std::size_t s = 0; s < nslots; ++s) {
    cells[s].waves = waves_of(cells[s].scheduled, policy.wave);
    if (cells[s].owned) {
      result.total_runs += static_cast<std::uint64_t>(cells[s].scheduled);
      result.pruned_runs += static_cast<std::uint64_t>(totals[s].pruned);
    }
  }
  result.batch = run.finish();
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
