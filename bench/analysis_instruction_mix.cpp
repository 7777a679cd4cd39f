// Workload characterisation: instruction mix and hot spots of the benchmark
// suite. Context for the sensitivity tables — e.g. the FPU share explains
// why FP-register faults are rarer but NaN-productive, and the hot-symbol
// concentration explains the text working sets of Tables 5-7.
#include <cstdio>

#include "apps/app.hpp"
#include "simmpi/world.hpp"
#include "trace/mix.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"

int main(int argc, char** argv) try {
  using namespace fsim;
  util::Cli cli(argc, argv);
  const int rank = cli.count("rank", 1, 0);
  cli.reject_unused();

  std::printf("=== Workload characterisation: instruction mix ===\n\n");
  for (const auto& name : apps::app_names()) {
    apps::App app = apps::make_app(name);
    if (rank >= app.world.nranks)
      throw util::SetupError("option --rank: " + name + " has only " +
                             std::to_string(app.world.nranks) + " ranks");
    svm::Program program = app.link();
    simmpi::World world(program, app.world);
    trace::InstructionMixProfiler mix(program, world.machine(rank));
    if (world.run(2'000'000'000ull) != simmpi::JobStatus::kCompleted) {
      std::printf("%s: run failed\n", name.c_str());
      return 1;
    }
    std::printf("--- %s (rank %d) ---\n%s\n", name.c_str(), rank,
                mix.format().c_str());
  }
  return 0;
} catch (const fsim::util::SetupError& e) {
  std::fprintf(stderr, "analysis_instruction_mix: %s\n", e.what());
  return 1;
}
