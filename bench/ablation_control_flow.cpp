// Ablation (§8.2): control-flow checking by software signatures
// (Oh/Shirvani/McCluskey, cited by the paper as a software remedy for text-
// region soft errors). Every rank runs under a control-flow monitor built
// from the pristine image; we inject text faults and measure what coverage
// and latency a CFC scheme would have delivered on top of the baseline
// classifier.
#include <cstdio>

#include "apps/app.hpp"
#include "bench_util.hpp"
#include "core/cfc.hpp"
#include "core/dictionary.hpp"
#include "core/injector.hpp"
#include "simmpi/world.hpp"

using namespace fsim;

namespace {

struct Outcome {
  simmpi::JobStatus status;
  bool flagged;
  std::uint64_t flag_at;
  std::uint64_t end_at;
  bool output_ok;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv, 250);

  std::printf(
      "=== Ablation: control-flow checking vs text faults (wavetoy) ===\n\n");

  apps::App app = apps::make_wavetoy();
  const svm::Program program = app.link();
  const core::Golden golden = core::run_golden(app, program);
  util::Rng drng(util::hash_seed({args.seed, 0xcfc}));
  core::FaultDictionary dict(program, core::Region::kText, drng);
  // One pre-generated signature table, shared read-only by every rank's
  // checker across all runs (static mode: no decode on the fetch path).
  const core::CfcSignatures sigs(program);

  int manifested = 0, manifested_flagged = 0;
  int benign = 0, benign_flagged = 0;
  double latency_sum = 0;
  int latency_n = 0;

  for (int i = 0; i < args.runs; ++i) {
    util::Rng rng(
        util::hash_seed({args.seed, 0x11, static_cast<std::uint64_t>(i)}));
    simmpi::WorldOptions opts = app.world;
    opts.seed = 1;
    simmpi::World world(program, opts);
    std::vector<std::unique_ptr<core::ControlFlowChecker>> checkers;
    for (int r = 0; r < world.size(); ++r)
      checkers.push_back(std::make_unique<core::ControlFlowChecker>(
          program, world.machine(r), &sigs));

    const std::uint64_t t_inject = rng.below(golden.instructions);
    core::Injector injector(core::Region::kText, &dict);
    bool injected = false;
    while (world.status() == simmpi::JobStatus::kRunning &&
           world.global_instructions() < golden.hang_budget) {
      if (!injected && world.global_instructions() >= t_inject)
        injected = injector.inject(world, rng).has_value();
      world.advance();
    }

    bool flagged = false;
    std::uint64_t flag_at = 0;
    for (const auto& c : checkers) {
      if (c->violated()) {
        flagged = true;
        flag_at = std::max(flag_at, c->violation()->at);
      }
    }
    const bool completed_ok =
        world.status() == simmpi::JobStatus::kCompleted &&
        world.output() == golden.baseline;
    if (completed_ok) {
      ++benign;
      if (flagged) ++benign_flagged;
    } else {
      ++manifested;
      if (flagged) {
        ++manifested_flagged;
        latency_sum += static_cast<double>(world.global_instructions() -
                                           flag_at) /
                       static_cast<double>(golden.instructions);
        ++latency_n;
      }
    }
  }

  util::Table t("CFC monitor over " + std::to_string(args.runs) +
                " text-fault injections");
  t.header({"Metric", "Value"});
  t.row({"manifested faults (crash/hang/corrupt)", std::to_string(manifested)});
  t.row({"  ...flagged by CFC before the end",
         util::fmt_pct(manifested_flagged, manifested) + "%"});
  t.row({"benign faults (run stayed correct)", std::to_string(benign)});
  t.row({"  ...flagged by CFC (latent-fault warnings)",
         util::fmt_pct(benign_flagged, benign) + "%"});
  t.row({"mean lead time before failure (fraction of a run)",
         latency_n ? util::fmt_fixed(latency_sum / latency_n, 2)
                   : std::string("-")});
  std::printf("%s\n", t.ascii().c_str());

  std::printf(
      "Paper (Sec 8.2): \"control-flow checking can monitor branches to\n"
      "determine if they deviate from a pre-generated control-flow\n"
      "signature\". The monitor adds coverage over the hardware traps the\n"
      "classifier already sees: retargeted branches and corrupted returns\n"
      "are flagged at the first illegal edge, typically well before the\n"
      "crash or the silent output corruption. Pure data damage (a corrupted\n"
      "ALU immediate) is invisible to CFC by design.\n");
  return 0;
}
