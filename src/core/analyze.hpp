// Whole-program fault pre-analysis report (`fsim analyze`): for each
// injection region, the fraction of the fault space the static analyses
// prove masked — a *sound lower bound* on the Correct rate a campaign will
// measure — next to the measured manifestation and activation splits from
// a reference campaign over the same seed.
//
// The predicted fractions quantify over the sampling distribution the
// injector actually uses, so prediction and measurement are comparable:
//   regular  — GPRs dead at every reachable instruction, over kNumGpr
//              uniformly chosen registers;
//   fp       — 64 data bits per provably always-empty physical slot, over
//              the 688-bit FPU state vector;
//   text/data/bss — dead-tagged entries of the same seed-derived fault
//              dictionary the campaign draws targets from;
//   stack/heap — 0: the sampled population (live chunks and frames at the
//              injection instant) is dynamic, so no static *fraction* is
//              claimed even though the heap/frame ladder rungs do prune
//              individual faults (their bite shows in the pruned columns);
//   message  — 0 (no static proof covers it).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/campaign.hpp"
#include "svm/analysis/memliveness.hpp"

namespace fsim::core {

/// One region's predicted-vs-measured row.
struct RegionAnalysis {
  Region region{};
  /// Statically proven masked share of the region's fault space, in [0,1].
  double predicted_masked = 0.0;
  /// Reference-campaign counts (all zero for a static-only report).
  int executions = 0;
  int correct = 0;
  int pruned = 0;
  /// Pruned counts split by the ladder rung whose proof decided each run
  /// (indexed by PruneRung; the kNone slot stays zero).
  std::array<int, kNumPruneRungs> pruned_rungs{};
  int act_live = 0;
  int act_dead = 0;

  int rung(PruneRung r) const noexcept {
    return pruned_rungs[static_cast<unsigned>(r)];
  }

  double measured_correct() const noexcept {
    return executions ? static_cast<double>(correct) / executions : 0.0;
  }
};

struct AnalyzeResult {
  std::string app;
  std::uint64_t seed = 0;
  int runs = 0;  // 0 = static-only report

  // Static inventory behind the fractions.
  unsigned dead_registers = 0;       // GPRs outside every reachable live-in
  std::uint16_t dead_register_mask = 0;
  unsigned empty_fp_slots = 0;       // provably always-empty physical slots
  unsigned fp_max_depth = 0;         // whole-program FP depth bound
  std::size_t text_entries = 0, text_dead = 0;
  std::size_t data_entries = 0, data_dead = 0;
  std::size_t bss_entries = 0, bss_dead = 0;
  svm::analysis::SegmentLiveness data_segment;
  svm::analysis::SegmentLiveness bss_segment;
  int stack_frames = 0;
  int dead_stack_slots = 0;          // write-only locals across all frames
  int heap_sites = 0;                // allocation sites found by the scan
  int heap_dead_sites = 0;           // write-only / entombed sites
  bool heap_scan_tracked = false;    // interprocedural scan completed
  bool stack_rung_enabled = false;   // frame discipline verified globally
  int eligible_frames = 0;           // frames the stack rung may prune in

  std::vector<RegionAnalysis> regions;
};

/// Read the static pre-analysis of `app` from its campaign preparation
/// under `config` and, when config.runs_per_region > 0 (0 = static only),
/// run that campaign under `exec` as the reference (`fsim analyze` keeps
/// the default prune level, full). The campaign is prepared once either
/// way.
AnalyzeResult analyze_app(const apps::App& app, const CampaignConfig& config,
                          const ExecPolicy& exec = {});

/// Human-readable report: inventory block plus the per-region table.
std::string format_analyze(const AnalyzeResult& result);

/// Machine-readable forms of the same report.
std::string analyze_json(const AnalyzeResult& result);
std::string analyze_csv(const AnalyzeResult& result);

}  // namespace fsim::core
