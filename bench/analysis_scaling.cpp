// Analysis (§1/§2): fault exposure vs system size.
// The paper's opening argument: as node counts grow to thousands, "the
// standard assumption that system hardware and software are fully reliable
// becomes much less credible". We measure the per-fault manifestation
// probability at several world sizes and combine it with the paper's
// soft-error-rate arithmetic to project the application-visible error
// interval as the job scales out.
#include <cstdio>

#include "apps/app.hpp"
#include "bench_util.hpp"

using namespace fsim;

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv, 60);

  std::printf("=== Sec 1-2: fault exposure vs system size (wavetoy) ===\n\n");

  util::Table t("Per-fault sensitivity across world sizes (" +
                std::to_string(args.runs) + " runs per cell)");
  t.header({"Ranks", "Golden instr", "Msg bytes/rank", "Register err %",
            "Message err %"});

  struct Row {
    int ranks;
    double reg_rate, msg_rate;
  };
  std::vector<Row> rows;

  for (int ranks : {2, 4, 8, 16}) {
    apps::WavetoyConfig cfg;
    cfg.ranks = ranks;
    apps::App app = apps::make_wavetoy(cfg);
    const svm::Program program = app.link();
    const core::Golden golden = core::run_golden(app, program);

    core::WorldSlot world;
    auto rate = [&](core::Region region, std::uint64_t salt) {
      int errors = 0;
      for (int i = 0; i < args.runs; ++i) {
        const core::RunOutcome out = core::run_injected(
            app, program, golden, region, nullptr,
            util::hash_seed({args.seed, salt,
                             static_cast<std::uint64_t>(ranks),
                             static_cast<std::uint64_t>(i)}),
            {}, &world);
        errors += out.manifestation != core::Manifestation::kCorrect;
      }
      return 100.0 * errors / args.runs;
    };
    const double reg = rate(core::Region::kRegularReg, 1);
    const double msg = rate(core::Region::kMessage, 2);
    rows.push_back({ranks, reg, msg});

    std::uint64_t rx = 0;
    for (auto b : golden.rx_bytes) rx += b;
    t.row({std::to_string(ranks), std::to_string(golden.instructions),
           std::to_string(rx / static_cast<std::uint64_t>(ranks)),
           util::fmt_fixed(reg, 1), util::fmt_fixed(msg, 1)});
  }
  std::printf("%s\n", t.ascii().c_str());

  // Exposure projection: per-fault sensitivity is roughly size-independent,
  // but the fault arrival rate scales with the deployed hardware. Use the
  // paper's conservative 500 FIT/Mb (~1 soft error / 10 days / GB).
  util::Table e("Projected interval between *manifested* memory errors\n"
                "(1 uncorrected flip / 10 days / GB without ECC; per-fault\n"
                " manifestation from the measured register row above)");
  e.header({"System", "RAM", "interval between manifested errors (days)"});
  const double p = rows.back().reg_rate / 100.0;
  struct Sys {
    const char* name;
    double gb;
  } systems[] = {{"single node", 1},
                 {"64-node lab cluster", 64},
                 {"1024-node cluster", 1024},
                 {"ASCI-Q-class (33 TB)", 33000}};
  for (const auto& sys : systems) {
    const double errors_per_day = sys.gb / 10.0 * p;
    const double days = 1.0 / errors_per_day;
    e.row({sys.name, util::fmt_fixed(sys.gb, 0) + " GB",
           days >= 0.5 ? util::fmt_fixed(days, 1)
                       : util::fmt_fixed(days * 24.0, 1) + " hours"});
  }
  std::printf("%s\n", e.ascii().c_str());
  std::printf(
      "Per-fault sensitivity stays roughly flat with world size, so the\n"
      "application-visible error interval shrinks linearly with deployed\n"
      "memory — from years on a workstation to hours on a teraflop system,\n"
      "the paper's case in one table.\n");
  return 0;
}
