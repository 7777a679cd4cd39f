// Analysis (§7): practical hang detection via progress metrics.
// "Although determining if an execution will terminate is undecidable,
// simple progress metrics (e.g., FLOPS, messages per second or loop
// iterations per minute) can provide some practical detection mechanisms."
//
// We arm hang-prone faults (registers, stack, text, messages), run with the
// scheduler's deadlock detector DISABLED (real MPICH gives you no such
// signal — only your own patience), and watch a simple message-progress
// monitor: "has any rank received new bytes within the last W
// instructions?". We compare the instruction count at which the monitor
// raises the alarm against the timeout budget the classifier uses (§5.1:
// one minute past the expected completion time).
#include <cstdio>
#include <vector>

#include "apps/app.hpp"
#include "bench_util.hpp"
#include "core/dictionary.hpp"
#include "core/injector.hpp"
#include "simmpi/world.hpp"

using namespace fsim;

namespace {

std::uint64_t total_rx(simmpi::World& world) {
  std::uint64_t rx = 0;
  for (int r = 0; r < world.size(); ++r)
    rx += world.process(r).channel().received_bytes();
  return rx;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv, 300);

  std::printf("=== Sec 7: hang detection via progress metrics ===\n\n");

  apps::App app = apps::make_wavetoy();
  const svm::Program program = app.link();
  const core::Golden golden = core::run_golden(app, program);
  util::Rng drng(util::hash_seed({args.seed, 0x99}));
  core::FaultDictionary text_dict(program, core::Region::kText, drng);

  // Alarm window: a small multiple of the fault-free inter-message gap.
  const std::uint64_t window = golden.instructions / 4;

  int hangs = 0, flagged = 0, false_positives = 0, completed = 0, crashed = 0;
  double mean_fraction = 0;
  const core::Region regions[] = {core::Region::kRegularReg,
                                  core::Region::kStack, core::Region::kText,
                                  core::Region::kMessage};
  for (int i = 0; i < args.runs && hangs < 30; ++i) {
    const core::Region region = regions[i % 4];
    util::Rng rng(
        util::hash_seed({args.seed, 0x70, static_cast<std::uint64_t>(i)}));
    simmpi::WorldOptions opts = app.world;
    opts.seed = 1;
    opts.deadlock_rounds = 0;  // nothing but progress (or patience) saves us
    simmpi::World world(program, opts);

    bool injected = false;
    if (region == core::Region::kMessage) {
      const int rank = 1 + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(world.size() - 1)));
      world.process(rank).channel().arm_fault(
          rng.below(golden.rx_bytes[static_cast<std::size_t>(rank)]),
          static_cast<unsigned>(rng.below(8)));
      injected = true;
    }
    const std::uint64_t t_inject = rng.below(golden.instructions);
    core::Injector injector(
        region, region == core::Region::kText ? &text_dict : nullptr);

    std::uint64_t flagged_at = 0, last_rx = 0, last_rx_at = 0;
    while (world.status() == simmpi::JobStatus::kRunning &&
           world.global_instructions() < golden.hang_budget) {
      if (!injected && world.global_instructions() >= t_inject)
        injected = injector.inject(world, rng).has_value();
      world.advance();
      const std::uint64_t rx = total_rx(world);
      const std::uint64_t now = world.global_instructions();
      if (rx != last_rx) {
        last_rx = rx;
        last_rx_at = now;
      } else if (flagged_at == 0 && injected && now - last_rx_at > window) {
        flagged_at = now;
      }
    }
    switch (world.status()) {
      case simmpi::JobStatus::kCompleted:
        ++completed;
        if (flagged_at != 0) ++false_positives;
        break;
      case simmpi::JobStatus::kRunning: {  // timed out: a true hang
        ++hangs;
        if (flagged_at != 0) {
          ++flagged;
          mean_fraction += static_cast<double>(flagged_at) /
                           static_cast<double>(golden.hang_budget);
        }
        break;
      }
      default:
        ++crashed;  // crash/abort paths are out of scope here
        break;
    }
  }
  if (flagged > 0) mean_fraction /= flagged;

  util::Table t("Progress-metric monitor vs timeout classifier");
  t.header({"Metric", "Value"});
  t.row({"timeout budget (instructions)", std::to_string(golden.hang_budget)});
  t.row({"monitor window (instructions)", std::to_string(window)});
  t.row({"runs completed / crashed / hung",
         std::to_string(completed) + " / " + std::to_string(crashed) + " / " +
             std::to_string(hangs)});
  t.row({"hangs flagged by monitor", util::fmt_pct(flagged, hangs) + "%"});
  t.row({"false positives on completed runs",
         util::fmt_pct(false_positives, completed) + "%"});
  t.row({"mean alarm time (fraction of timeout)",
         flagged ? util::fmt_fixed(mean_fraction, 2) : std::string("-")});
  std::printf("%s\n", t.ascii().c_str());
  std::printf(
      "The message-rate monitor flags stalled runs at a small fraction of\n"
      "the wait-past-expected-completion timeout (Sec 5.1), supporting the\n"
      "paper's recommendation of cheap progress metrics.\n");
  return 0;
}
