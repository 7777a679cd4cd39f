// Regenerates Tables 5-7 (the working-set figures): for each application,
// the text-access and Data+BSS+Heap-load working-set size over time for one
// instrumented process, plus the phase-transition statistics quoted in
// §6.1.2 (working set at time 0 vs during the computation phase).
#include <cstdio>

#include "apps/app.hpp"
#include "bench_util.hpp"
#include "simmpi/world.hpp"
#include "trace/working_set.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"

namespace {

void sparkline(const fsim::trace::AccessTracer::Series& s) {
  // A coarse text rendering of the declining working-set curve.
  double max_pct = 0;
  for (double v : s.ws_pct) max_pct = std::max(max_pct, v);
  if (max_pct <= 0) max_pct = 1;
  std::printf("  %-14s [", s.label.c_str());
  static const char kLevels[] = " .:-=+*#%@";
  for (double v : s.ws_pct) {
    const int idx = static_cast<int>(9.0 * v / max_pct);
    std::putchar(kLevels[idx]);
  }
  std::printf("] peak %.1f%%\n", max_pct);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace fsim;
  util::Cli cli(argc, argv);
  const std::size_t points = static_cast<std::size_t>(cli.count("points", 40));
  const bool full = cli.flag("full");  // print the numeric series too
  cli.reject_unused();

  std::printf(
      "=== Tables 5-7: Working-set size vs time (Valgrind-analogue) ===\n\n");

  for (const auto& name : apps::app_names()) {
    apps::App app = apps::make_app(name);
    svm::Program program = app.link();
    simmpi::World world(program, app.world);
    // Instrument one process, like the paper's randomly selected rank.
    trace::AccessTracer tracer(world.machine(1));
    world.run(2'000'000'000ull);
    if (world.status() != simmpi::JobStatus::kCompleted) {
      std::printf("%s: traced run failed!\n", name.c_str());
      return 1;
    }
    tracer.set_heap_denominator(
        world.process(1).heap().peak_usage() > 0
            ? world.process(1).heap().peak_usage()
            : 1);

    const auto text = tracer.text_series(points);
    const auto data = tracer.segment_series(svm::Segment::kData, points);
    const auto bss = tracer.segment_series(svm::Segment::kBss, points);
    const auto combined = tracer.data_combined_series(points);

    std::printf("--- %s (rank 1, %llu instructions traced) ---\n",
                name.c_str(),
                static_cast<unsigned long long>(
                    world.machine(1).instructions()));
    sparkline(text);
    sparkline(combined);
    sparkline(data);
    sparkline(bss);

    const double text0 = text.ws_pct.front();
    const double text_mid = text.ws_pct[points / 2];
    const double comb0 = combined.ws_pct.front();
    const double comb_mid = combined.ws_pct[points / 2];
    std::printf(
        "  text working set:   %.1f%% at t=0  ->  %.1f%% in computation "
        "phase\n"
        "  data+bss+heap:      %.1f%% at t=0  ->  %.1f%% in computation "
        "phase\n\n",
        text0, text_mid, comb0, comb_mid);

    if (full) {
      std::printf("%s\n", trace::format_series(text).c_str());
      std::printf("%s\n", trace::format_series(combined).c_str());
    }
  }

  std::printf(
      "Paper reference (Sec 6.1.2): text working set at t=0 is 30%% (Cactus),\n"
      "15%% (NAMD), 30%% (CAM), declining to 10 / 8 / 13%% in the computation\n"
      "phase; Data+BSS+Heap starts at 28 / 60 / 19%% and drops to 12 / 22 /\n"
      "16%%. The reproduction target is the *declining step* and the small\n"
      "computation-phase working set that explains low memory error rates.\n");
  return 0;
} catch (const fsim::util::SetupError& e) {
  std::fprintf(stderr, "fig_working_sets: %s\n", e.what());
  return 1;
}
