// Regenerates the §6.2 Cactus message analysis:
//  * header flips corrupt the execution with ~40% probability, while user
//    payload flips are mostly masked by near-zero values and low-precision
//    text output (error rate 3.1% overall, crash+hang ~ 6% x 0.4 ~ 2.4%);
//  * payload manifestation depends on which IEEE-754 field the bit lands in
//    (only significant exponent/mantissa bits surface);
//  * running more iterations amplifies the error: longer runs almost always
//    yield incorrect output.
#include <cstdio>

#include "apps/app.hpp"
#include "bench_util.hpp"
#include "util/bits.hpp"

using namespace fsim;

namespace {

struct Split {
  int header_runs = 0, header_errors = 0;
  int payload_runs = 0, payload_errors = 0;
};

Split message_split(const apps::App& app, int runs, std::uint64_t seed) {
  const svm::Program program = app.link();
  const core::Golden golden = core::run_golden(app, program);
  Split s;
  core::WorldSlot world;
  for (int i = 0; i < runs; ++i) {
    const core::RunOutcome out = core::run_injected(
        app, program, golden, core::Region::kMessage, nullptr,
        util::hash_seed({seed, 0x6d, static_cast<std::uint64_t>(i)}), {},
        &world);
    if (!out.msg_fired) continue;
    const bool error = out.manifestation != core::Manifestation::kCorrect;
    if (out.msg_hit_header) {
      ++s.header_runs;
      s.header_errors += error;
    } else {
      ++s.payload_runs;
      s.payload_errors += error;
    }
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv, 250);

  std::printf("=== Sec 6.2: Cactus Wavetoy message-fault analysis ===\n\n");

  // 1. Header vs payload sensitivity.
  const Split s = message_split(apps::make_wavetoy(), args.runs, args.seed);
  util::Table t("Header vs user-data sensitivity (" +
                std::to_string(args.runs) + " armed faults)");
  t.header({"Stream region", "Fired", "Errors", "Error rate"});
  t.row({"Header bytes", std::to_string(s.header_runs),
         std::to_string(s.header_errors),
         util::fmt_pct(s.header_errors, s.header_runs)});
  t.row({"User data bytes", std::to_string(s.payload_runs),
         std::to_string(s.payload_errors),
         util::fmt_pct(s.payload_errors, s.payload_runs)});
  std::printf("%s\n", t.ascii().c_str());
  std::printf(
      "Paper: \"perturbing the headers has about a 40 percent probability of\n"
      "corrupting the Cactus execution\" while most user-data flips vanish\n"
      "into near-zero values printed at low precision.\n\n");

  // 2. Visibility vs output representation: the same faults against the
  // full-precision (binary) output variant. This isolates the masking
  // effect of low-precision text output from everything else.
  {
    apps::WavetoyConfig bin_cfg;
    bin_cfg.binary_output = true;
    const Split b =
        message_split(apps::make_wavetoy(bin_cfg), args.runs, args.seed);
    util::Table t2("Same faults, full-precision (binary) output");
    t2.header({"Stream region", "Fired", "Errors", "Error rate"});
    t2.row({"Header bytes", std::to_string(b.header_runs),
            std::to_string(b.header_errors),
            util::fmt_pct(b.header_errors, b.header_runs)});
    t2.row({"User data bytes", std::to_string(b.payload_runs),
            std::to_string(b.payload_errors),
            util::fmt_pct(b.payload_errors, b.payload_runs)});
    std::printf("%s\n", t2.ascii().c_str());
    std::printf(
        "Paper: \"A binary output format would detect more cases of\n"
        "incorrect output\" — the user-data error rate rises once the\n"
        "rounding mask of %%.4g text output is removed.\n\n");
  }

  // 3. Iteration-count sweep. The paper reports that the error amplifies as
  // the computation continues; our substitution does NOT reproduce this
  // (documented in EXPERIMENTS.md): the scaled-down solver is a stable
  // linear leapfrog, which conserves an injected perturbation instead of
  // amplifying it, so visibility stays flat with run length.
  util::Table amp("Iteration-count sweep (known NON-reproduction)");
  amp.header({"Steps", "Message faults", "Incorrect", "Any error"});
  for (int steps : {6, 20, 60}) {
    apps::WavetoyConfig cfg;
    cfg.steps = steps;
    apps::App a = apps::make_wavetoy(cfg);
    const svm::Program program = a.link();
    const core::Golden g = core::run_golden(a, program);
    int incorrect = 0, errors = 0, fired = 0;
    const int n = args.runs / 2;
    core::WorldSlot world;
    for (int i = 0; i < n; ++i) {
      const core::RunOutcome out = core::run_injected(
          a, program, g, core::Region::kMessage, nullptr,
          util::hash_seed({args.seed, 0xa2, static_cast<std::uint64_t>(steps),
                           static_cast<std::uint64_t>(i)}),
          {}, &world);
      if (!out.msg_fired) continue;
      ++fired;
      errors += out.manifestation != core::Manifestation::kCorrect;
      incorrect += out.manifestation == core::Manifestation::kIncorrect;
    }
    amp.row({std::to_string(steps), std::to_string(fired),
             util::fmt_pct(incorrect, fired), util::fmt_pct(errors, fired)});
  }
  std::printf("%s\n", amp.ascii().c_str());
  std::printf(
      "Paper: \"executing more Cactus Wavetoy iterations will almost always\n"
      "yield incorrect outputs\". Our stable linear solver conserves the\n"
      "perturbation, so the rate stays flat — an honest limit of the\n"
      "substitution, flagged in EXPERIMENTS.md.\n");
  return 0;
}
