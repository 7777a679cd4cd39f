// Checkpoint/restart example: snapshot a running job, kill it with an
// injected fault, rewind, and finish correctly.
//
//   ./build/examples/checkpoint_restart [--app=wavetoy|minimd|atmo|jacobi]
#include <cstdio>

#include "apps/app.hpp"
#include "core/run.hpp"
#include "simmpi/snapshot.hpp"
#include "simmpi/world.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace fsim;
  util::Cli cli(argc, argv);
  const std::string name = cli.str("app", "wavetoy");
  cli.reject_unused();
  apps::App app = apps::make_app(name);

  const svm::Program program = app.link();
  const core::Golden golden = core::run_golden(app, program);
  simmpi::WorldOptions opts = app.world;
  opts.seed = 1;
  simmpi::World world(program, opts);

  // Run to roughly the middle of the job, then checkpoint.
  while (world.status() == simmpi::JobStatus::kRunning &&
         world.global_instructions() < golden.instructions / 2)
    world.advance();
  const simmpi::Snapshot checkpoint = simmpi::Snapshot::capture(world);
  std::printf("checkpoint at t=%llu (%s)\n",
              static_cast<unsigned long long>(world.global_instructions()),
              util::fmt_bytes(checkpoint.size_bytes()).c_str());

  // Simulate a fatal soft error: wild stack pointer on rank 1.
  world.machine(1).regs().set_sp(0x44);
  world.machine(1).regs().set_fp(0x44);
  world.run(golden.hang_budget);
  std::printf("fault outcome: status=%d (%s)\n",
              static_cast<int>(world.status()),
              world.failure_message().c_str());

  // Recover.
  checkpoint.restore(world);
  std::printf("restored to t=%llu; resuming...\n",
              static_cast<unsigned long long>(world.global_instructions()));
  if (world.run(golden.hang_budget) != simmpi::JobStatus::kCompleted) {
    std::printf("recovery failed!\n");
    return 1;
  }
  std::printf("recovered run completed; output %s the fault-free baseline\n",
              world.output() == golden.baseline ? "MATCHES" : "differs from");
  return 0;
} catch (const fsim::util::SetupError& e) {
  std::fprintf(stderr, "checkpoint_restart: %s\n", e.what());
  return 1;
}
