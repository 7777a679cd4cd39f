// Working-set example: attach the Valgrind-analogue tracer to one rank of
// an application, run fault-free, and print the declining working-set
// curves that explain why memory faults rarely manifest (§6.1.2).
//
//   ./build/examples/working_set_trace --app=atmo --rank=2 --points=20
#include <cstdio>

#include "apps/app.hpp"
#include "simmpi/world.hpp"
#include "trace/working_set.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"

int main(int argc, char** argv) try {
  using namespace fsim;
  util::Cli cli(argc, argv);
  const std::string name = cli.str("app", "wavetoy");
  const int rank = static_cast<int>(cli.num("rank", 1));
  const std::size_t points = static_cast<std::size_t>(cli.count("points", 20));
  cli.reject_unused();

  apps::App app = apps::make_app(name);
  if (rank < 0 || rank >= app.world.nranks) {
    std::fprintf(stderr, "rank out of range (app has %d ranks)\n",
                 app.world.nranks);
    return 1;
  }

  svm::Program program = app.link();
  simmpi::World world(program, app.world);
  trace::AccessTracer tracer(world.machine(rank));

  if (world.run(2'000'000'000ull) != simmpi::JobStatus::kCompleted) {
    std::fprintf(stderr, "run failed:\n%s", world.console().c_str());
    return 1;
  }
  tracer.set_heap_denominator(world.process(rank).heap().peak_usage());

  std::printf("traced rank %d of %s: %llu fetches, %llu loads\n\n", rank,
              app.name.c_str(), static_cast<unsigned long long>(tracer.fetches()),
              static_cast<unsigned long long>(tracer.loads()));
  std::printf("%s\n", trace::format_series(tracer.text_series(points)).c_str());
  std::printf("%s\n",
              trace::format_series(tracer.data_combined_series(points)).c_str());
  return 0;
} catch (const fsim::util::SetupError& e) {
  std::fprintf(stderr, "working_set_trace: %s\n", e.what());
  return 1;
}
