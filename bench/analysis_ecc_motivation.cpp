// Analysis (§2): the COTS reliability arithmetic that motivates the paper,
// combined with measured application sensitivity.
//
// The paper's motivating example: the ASCI Q system has 33 TB of ECC
// memory; at one soft error per 10 days per GB and 95% ECC coverage, about
// 1,650 errors every ten days escape correction. We reproduce that
// arithmetic, extend it across system sizes and ECC coverage rates, and
// then fold in the *measured* application sensitivity (the probability that
// an uncorrected memory flip actually manifests) from a live campaign.
#include <cstdio>

#include "apps/app.hpp"
#include "bench_util.hpp"

using namespace fsim;

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv, 120);

  std::printf("=== Sec 2: COTS soft-error arithmetic + measured sensitivity ===\n\n");

  // 1. The paper's headline number.
  {
    const double gb = 33.0 * 1000.0;  // 33 TB in GB (paper uses 33,000)
    const double errors_per_10d = gb * 1.0;  // 1 error / 10 days / GB
    const double uncorrected = errors_per_10d * 0.05;
    std::printf(
        "ASCI Q example: %.0f GB -> %.0f raw soft errors / 10 days;\n"
        "at 95%% ECC coverage, %.0f escape correction (paper: ~1,650).\n\n",
        gb, errors_per_10d, uncorrected);
  }

  // 2. Sweep system size and coverage.
  util::Table sweep("Uncorrected memory soft errors per 10 days");
  sweep.header({"System RAM", "no ECC", "ECC 82% (Constantinescu)",
                "ECC 90% (Compaq)", "ECC 95%"});
  for (double tb : {1.0, 33.0, 100.0, 1000.0}) {
    const double raw = tb * 1024.0;
    sweep.row({util::fmt_fixed(tb, 0) + " TB", util::fmt_fixed(raw, 0),
               util::fmt_fixed(raw * 0.18, 0), util::fmt_fixed(raw * 0.10, 0),
               util::fmt_fixed(raw * 0.05, 0)});
  }
  std::printf("%s\n", sweep.ascii().c_str());

  // 3. Measured manifestation probability: what fraction of uncorrected
  // flips into the *application's* address space actually change behaviour.
  std::printf("Measuring memory-fault manifestation rates (%d runs/region)...\n",
              args.runs);
  apps::App app = apps::make_wavetoy();
  core::CampaignConfig cfg = bench::campaign_config(args);
  cfg.regions = {core::Region::kData, core::Region::kBss, core::Region::kHeap,
                 core::Region::kStack};
  const core::CampaignResult res =
      core::run_campaign(app, cfg, bench::exec_policy(args));

  double weighted = 0;
  int n = 0;
  util::Table t("Measured manifestation probability (wavetoy)");
  t.header({"Region", "Error rate"});
  for (const auto& rr : res.regions) {
    t.row({core::region_name(rr.region),
           util::fmt_fixed(100.0 * rr.error_rate(), 1) + "%"});
    weighted += rr.error_rate();
    ++n;
  }
  const double mean = n ? weighted / n : 0.0;
  t.separator();
  t.row({"mean across regions", util::fmt_fixed(100.0 * mean, 1) + "%"});
  std::printf("%s\n", t.ascii().c_str());

  // 4. Put them together: manifested application errors per 10 days.
  util::Table fin("Projected *manifested* application errors per 10 days\n"
                  "(uncorrected flips x measured manifestation rate)");
  fin.header({"System RAM", "ECC 95%", "no ECC"});
  for (double tb : {33.0, 1000.0}) {
    const double raw = tb * 1024.0;
    fin.row({util::fmt_fixed(tb, 0) + " TB",
             util::fmt_fixed(raw * 0.05 * mean, 0),
             util::fmt_fixed(raw * mean, 0)});
  }
  std::printf("%s\n", fin.ascii().c_str());
  std::printf(
      "Even with ECC and a low per-flip manifestation probability, a\n"
      "multi-teraflop system sees application-visible memory errors every\n"
      "few days — the paper's case for application-level fault awareness.\n");
  return 0;
}
