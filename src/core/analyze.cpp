#include "core/analyze.hpp"

#include <bit>
#include <cstdio>
#include <optional>
#include <sstream>

#include "core/dictionary.hpp"
#include "core/injector.hpp"
#include "core/sampling.hpp"
#include "svm/analysis/analysis.hpp"
#include "util/json.hpp"

namespace fsim::core {

namespace {

/// Union of the live-in GPR masks over every reachable instruction: a
/// register outside this union is overwritten before any read no matter
/// where in the program an injection lands.
std::uint16_t reachable_live_union(const svm::analysis::ProgramAnalysis& pa) {
  std::uint16_t live = 0;
  const auto& cfg = pa.cfg();
  for (std::uint32_t b = 0; b < cfg.blocks().size(); ++b) {
    if (!cfg.reachable_block(b)) continue;
    const auto& blk = cfg.blocks()[b];
    for (svm::Addr pc = blk.begin; pc < blk.end; pc += 4)
      live |= pa.liveness().live_in(pc);
  }
  return live;
}

double dict_dead_fraction(const FaultDictionary& dict) {
  if (dict.empty()) return 0.0;
  return static_cast<double>(dict.dead_entries()) /
         static_cast<double>(dict.size());
}

std::string percent(double f) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%5.1f%%", 100.0 * f);
  return buf;
}

/// Wilson 95% half-width of a measured proportion, in percentage points.
double ci95_pts(int successes, int n) {
  return 100.0 * wilson_half_width(0.05, static_cast<std::uint64_t>(successes),
                                   static_cast<std::uint64_t>(n));
}

}  // namespace

AnalyzeResult analyze_app(const apps::App& app, const CampaignConfig& config,
                          const ExecPolicy& exec) {
  AnalyzeResult out;
  out.app = app.name;
  out.seed = config.seed;
  out.runs = config.runs_per_region;

  // The campaign's own preparation: the same seed-derived dictionaries a
  // campaign with this seed draws its static-region targets from, tagged by
  // the same dead predicates, so the predicted fractions and the measured
  // counts share one fault space. With a reference campaign, its session
  // holds that preparation, so the campaign is prepared once.
  require_distinct_regions(app.name, config.regions);
  const std::vector<BatchEntry> entries{BatchEntry{app, config, {}}};
  std::optional<BatchSession> session;
  std::optional<Prepared> alone;
  if (config.runs_per_region > 0)
    session.emplace(entries, exec.jobs);
  else
    alone.emplace(prepare(app, config));
  const Prepared& prepared = session ? session->prepared(0) : *alone;
  const svm::analysis::ProgramAnalysis& analysis = prepared.analysis();
  const FaultDictionary& text = *prepared.dictionary(Region::kText);
  const FaultDictionary& data = *prepared.dictionary(Region::kData);
  const FaultDictionary& bss = *prepared.dictionary(Region::kBss);

  const std::uint16_t live = reachable_live_union(analysis);
  out.dead_register_mask = static_cast<std::uint16_t>(~live);
  out.dead_registers = static_cast<unsigned>(
      std::popcount(static_cast<unsigned>(out.dead_register_mask) & 0xffffu));
  out.empty_fp_slots = analysis.fpdepth().always_empty_slots();
  out.fp_max_depth = analysis.fpdepth().max_depth_bound();
  out.text_entries = text.size();
  out.text_dead = text.dead_entries();
  out.data_entries = data.size();
  out.data_dead = data.dead_entries();
  out.bss_entries = bss.size();
  out.bss_dead = bss.dead_entries();
  out.data_segment = analysis.memliveness().segment(svm::Segment::kData);
  out.bss_segment = analysis.memliveness().segment(svm::Segment::kBss);
  out.stack_frames = static_cast<int>(analysis.memliveness().frames().size());
  out.dead_stack_slots = analysis.memliveness().dead_stack_slots();
  out.heap_scan_tracked = analysis.heapliveness().tracked();
  for (const auto& [site, info] : analysis.heapliveness().sites()) {
    ++out.heap_sites;
    if (analysis.heap_site_dead(site)) ++out.heap_dead_sites;
  }
  out.stack_rung_enabled = analysis.stackwindow().enabled();
  for (const auto& f : analysis.stackwindow().frames())
    if (f.eligible) ++out.eligible_frames;

  auto predicted = [&](Region r) -> double {
    switch (r) {
      case Region::kRegularReg:
        return static_cast<double>(out.dead_registers) / svm::kNumGpr;
      case Region::kFpReg:
        return static_cast<double>(out.empty_fp_slots) * 64.0 / kFpuStateBits;
      case Region::kText:
      case Region::kData:
      case Region::kBss:
        return dict_dead_fraction(*prepared.dictionary(r));
      default:
        // stack/heap: the sampled population is dynamic (live chunks and
        // frames at the injection instant), so no static fraction is
        // claimed — the heap/frame rungs' bite shows in the pruned
        // columns instead. message: no static proof covers it.
        return 0.0;
    }
  };

  for (Region r : config.regions) {
    RegionAnalysis ra;
    ra.region = r;
    ra.predicted_masked = predicted(r);
    out.regions.push_back(ra);
  }

  if (session) {
    BatchConfig bc;
    bc.exec() = exec;
    const BatchResult batch = run_batch(*session, bc);
    const CampaignResult& measured = batch.campaigns.front();
    for (RegionAnalysis& ra : out.regions) {
      const RegionResult* rr = measured.find(ra.region);
      if (rr == nullptr) continue;
      ra.executions = rr->executions;
      ra.correct = rr->counts[static_cast<unsigned>(Manifestation::kCorrect)];
      ra.pruned = rr->pruned;
      ra.pruned_rungs = rr->pruned_rungs;
      ra.act_live = rr->act_executions[RegionResult::kLiveIdx];
      ra.act_dead = rr->act_executions[RegionResult::kDeadIdx];
    }
  }

  return out;
}

std::string format_analyze(const AnalyzeResult& r) {
  std::ostringstream os;
  os << "analyze: " << r.app << ", seed " << r.seed;
  if (r.runs > 0)
    os << ", " << r.runs << " runs/region reference campaign";
  else
    os << ", static only";
  os << "\n\nstatic inventory:\n";
  char line[160];
  std::snprintf(line, sizeof line,
                "  always-dead integer registers: %u of %u (mask 0x%04x)\n",
                r.dead_registers, svm::kNumGpr, r.dead_register_mask);
  os << line;
  std::snprintf(line, sizeof line,
                "  always-empty FP slots:         %u of %u"
                " (whole-program depth bound %u)\n",
                r.empty_fp_slots, svm::kNumFpr, r.fp_max_depth);
  os << line;
  std::snprintf(line, sizeof line,
                "  text dictionary:   %5zu of %5zu entries unreachable\n",
                r.text_dead, r.text_entries);
  os << line;
  std::snprintf(line, sizeof line,
                "  data dictionary:   %5zu of %5zu entries dead\n",
                r.data_dead, r.data_entries);
  os << line;
  std::snprintf(line, sizeof line,
                "  bss dictionary:    %5zu of %5zu entries dead\n",
                r.bss_dead, r.bss_entries);
  os << line;
  std::snprintf(line, sizeof line,
                "  data segment:      %llu of %llu bytes dead"
                " (%d of %d symbols)\n",
                static_cast<unsigned long long>(r.data_segment.dead_bytes),
                static_cast<unsigned long long>(r.data_segment.total_bytes),
                r.data_segment.dead_symbols, r.data_segment.symbols);
  os << line;
  std::snprintf(line, sizeof line,
                "  bss segment:       %llu of %llu bytes dead"
                " (%d of %d symbols)\n",
                static_cast<unsigned long long>(r.bss_segment.dead_bytes),
                static_cast<unsigned long long>(r.bss_segment.total_bytes),
                r.bss_segment.dead_symbols, r.bss_segment.symbols);
  os << line;
  std::snprintf(line, sizeof line,
                "  stack frames:      %d write-only dead slots"
                " across %d analyzed frames\n",
                r.dead_stack_slots, r.stack_frames);
  os << line;
  std::snprintf(line, sizeof line,
                "  heap sites:        %d of %d allocation sites read-free"
                " (scan %s)\n",
                r.heap_dead_sites, r.heap_sites,
                r.heap_scan_tracked ? "complete" : "incomplete");
  os << line;
  std::snprintf(line, sizeof line,
                "  frame rung:        %s, %d of %d frames eligible\n",
                r.stack_rung_enabled ? "enabled" : "disabled",
                r.eligible_frames, r.stack_frames);
  os << line;

  os << "\n";
  if (r.runs > 0) {
    std::snprintf(line, sizeof line,
                  "%-16s %16s  %16s %7s  %7s  %6s %6s %7s %7s %6s %6s  %s\n",
                  "region", "predicted-masked", "measured Correct", "ci95",
                  "pruned", "base", "fp-ctx", "timewin", "valrng", "heap",
                  "frame", "act live/dead");
    os << line;
    for (const auto& ra : r.regions) {
      std::snprintf(line, sizeof line,
                    "%-16s %16s  %16s %6.1fpt  %7d  %6d %6d %7d %7d %6d %6d"
                    "  %8d/%d\n",
                    region_name(ra.region),
                    percent(ra.predicted_masked).c_str(),
                    percent(ra.measured_correct()).c_str(),
                    ci95_pts(ra.correct, ra.executions), ra.pruned,
                    ra.rung(PruneRung::kBase), ra.rung(PruneRung::kFpCtx),
                    ra.rung(PruneRung::kTimeWindow),
                    ra.rung(PruneRung::kValueRange), ra.rung(PruneRung::kHeap),
                    ra.rung(PruneRung::kFrame), ra.act_live, ra.act_dead);
      os << line;
    }
    os << "\npredicted-masked is a sound lower bound: every statically "
          "proven-masked\nfault is Correct, so each row's first column "
          "must not exceed its second.\n";
  } else {
    std::snprintf(line, sizeof line, "%-16s %16s\n", "region",
                  "predicted-masked");
    os << line;
    for (const auto& ra : r.regions) {
      std::snprintf(line, sizeof line, "%-16s %16s\n", region_name(ra.region),
                    percent(ra.predicted_masked).c_str());
      os << line;
    }
  }
  return os.str();
}

std::string analyze_json(const AnalyzeResult& r) {
  util::JsonWriter w;
  w.begin_object();
  w.key("app").value(r.app);
  w.key("seed").value(static_cast<std::uint64_t>(r.seed));
  w.key("runs").value(r.runs);
  w.key("inventory");
  w.begin_object();
  w.key("dead_registers").value(static_cast<int>(r.dead_registers));
  w.key("dead_register_mask").value(static_cast<int>(r.dead_register_mask));
  w.key("empty_fp_slots").value(static_cast<int>(r.empty_fp_slots));
  w.key("fp_max_depth").value(static_cast<int>(r.fp_max_depth));
  w.key("text_dead").value(static_cast<std::uint64_t>(r.text_dead));
  w.key("text_entries").value(static_cast<std::uint64_t>(r.text_entries));
  w.key("data_dead").value(static_cast<std::uint64_t>(r.data_dead));
  w.key("data_entries").value(static_cast<std::uint64_t>(r.data_entries));
  w.key("bss_dead").value(static_cast<std::uint64_t>(r.bss_dead));
  w.key("bss_entries").value(static_cast<std::uint64_t>(r.bss_entries));
  w.key("data_dead_bytes").value(r.data_segment.dead_bytes);
  w.key("data_total_bytes").value(r.data_segment.total_bytes);
  w.key("bss_dead_bytes").value(r.bss_segment.dead_bytes);
  w.key("bss_total_bytes").value(r.bss_segment.total_bytes);
  w.key("dead_stack_slots").value(r.dead_stack_slots);
  w.key("stack_frames").value(r.stack_frames);
  w.key("heap_sites").value(r.heap_sites);
  w.key("heap_dead_sites").value(r.heap_dead_sites);
  w.key("heap_scan_tracked").value(r.heap_scan_tracked);
  w.key("stack_rung_enabled").value(r.stack_rung_enabled);
  w.key("eligible_frames").value(r.eligible_frames);
  w.end_object();
  w.key("regions");
  w.begin_array();
  for (const auto& ra : r.regions) {
    w.begin_object();
    w.key("region").value(region_token(ra.region));
    w.key("predicted_masked").value(ra.predicted_masked);
    if (r.runs > 0) {
      w.key("executions").value(ra.executions);
      w.key("correct").value(ra.correct);
      w.key("measured_correct").value(ra.measured_correct());
      w.key("correct_ci95")
          .value(wilson_half_width(0.05,
                                   static_cast<std::uint64_t>(ra.correct),
                                   static_cast<std::uint64_t>(ra.executions)));
      w.key("pruned").value(ra.pruned);
      w.key("pruned_base").value(ra.rung(PruneRung::kBase));
      w.key("pruned_fp_ctx").value(ra.rung(PruneRung::kFpCtx));
      w.key("pruned_time_window").value(ra.rung(PruneRung::kTimeWindow));
      w.key("pruned_value_range").value(ra.rung(PruneRung::kValueRange));
      w.key("pruned_heap").value(ra.rung(PruneRung::kHeap));
      w.key("pruned_frame").value(ra.rung(PruneRung::kFrame));
      w.key("act_live").value(ra.act_live);
      w.key("act_dead").value(ra.act_dead);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string analyze_csv(const AnalyzeResult& r) {
  std::ostringstream os;
  // New columns only ever append at the end (prefix-keyed consumers).
  os << "app,region,predicted_masked,executions,correct,measured_correct,"
        "pruned,pruned_base,pruned_fp_ctx,pruned_time_window,"
        "pruned_value_range,act_live,act_dead,correct_ci95,"
        "pruned_heap,pruned_frame\n";
  char line[240];
  for (const auto& ra : r.regions) {
    std::snprintf(line, sizeof line,
                  "%s,%s,%.6f,%d,%d,%.6f,%d,%d,%d,%d,%d,%d,%d,%.6f,%d,%d\n",
                  r.app.c_str(), region_token(ra.region), ra.predicted_masked,
                  ra.executions, ra.correct, ra.measured_correct(), ra.pruned,
                  ra.rung(PruneRung::kBase), ra.rung(PruneRung::kFpCtx),
                  ra.rung(PruneRung::kTimeWindow),
                  ra.rung(PruneRung::kValueRange), ra.act_live, ra.act_dead,
                  wilson_half_width(0.05,
                                    static_cast<std::uint64_t>(ra.correct),
                                    static_cast<std::uint64_t>(ra.executions)),
                  ra.rung(PruneRung::kHeap), ra.rung(PruneRung::kFrame));
    os << line;
  }
  return os.str();
}

}  // namespace fsim::core
