// Fault forensics: because every run is replayable from its seed, a crash
// found in a campaign can be re-executed under a microscope. This example
// sweeps seeds until a register fault crashes wavetoy, replays that exact
// run, and prints a post-mortem: what was flipped, the disassembly around
// the faulting instruction, the register file, and a symbolised stack walk.
//
//   ./build/examples/fault_forensics [--region=regular|text|stack] [--seed=N]
#include <cstdio>

#include "apps/app.hpp"
#include "core/dictionary.hpp"
#include "core/injector.hpp"
#include "core/run.hpp"
#include "simmpi/world.hpp"
#include "svm/isa.hpp"
#include "svm/stackwalk.hpp"
#include "util/cli.hpp"
#include "util/status.hpp"

using namespace fsim;

namespace {

const char* symbol_name(const svm::Program& program, svm::Addr addr) {
  const svm::Symbol* s = program.symbol_covering(addr);
  return s ? s->name.c_str() : "?";
}

void dump_code_window(const svm::Program& program, svm::Machine& m,
                      svm::Addr pc) {
  std::printf("  code around pc (original | executed):\n");
  for (int d = -2; d <= 2; ++d) {
    const svm::Addr a = pc + static_cast<svm::Addr>(d * 4);
    std::uint32_t live = 0;
    if (!m.memory().peek32(a, live)) continue;
    // Original word from the pristine image.
    std::uint32_t orig = live;
    const svm::Addr base = program.segment_base(svm::Segment::kText);
    const auto& img = program.image(svm::Segment::kText);
    if (a >= base && a - base + 4 <= img.size())
      std::memcpy(&orig, img.data() + (a - base), 4);
    std::printf("  %c 0x%08x <%s>  %-28s", d == 0 ? '>' : ' ', a,
                symbol_name(program, a), svm::disassemble(orig, a).c_str());
    if (orig != live)
      std::printf("  ->  %s   [CORRUPTED]", svm::disassemble(live, a).c_str());
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const core::Region region = core::parse_region(cli.str("region", "regular"));
  std::uint64_t seed = cli.u64("seed", 0);
  cli.reject_unused();

  apps::App app = apps::make_wavetoy();
  const svm::Program program = app.link();
  const core::Golden golden = core::run_golden(app, program);
  util::Rng drng(1);
  core::FaultDictionary dict(program, core::Region::kText, drng);
  const core::FaultDictionary* dict_ptr =
      region == core::Region::kText ? &dict : nullptr;

  // Find a crashing seed unless the user supplied one.
  if (seed == 0) {
    core::WorldSlot world;  // restored into by every probe run
    for (std::uint64_t s = 1; s < 500; ++s) {
      const core::RunOutcome out = core::run_injected(
          app, program, golden, region, dict_ptr, s, {}, &world);
      if (out.manifestation == core::Manifestation::kCrash) {
        seed = s;
        std::printf("seed %llu crashes: %s\n\n",
                    static_cast<unsigned long long>(s),
                    out.fault_description.c_str());
        break;
      }
    }
    if (seed == 0) {
      std::printf("no crash found in 500 seeds for this region\n");
      return 0;
    }
  }

  // Replay the exact run with full visibility.
  util::Rng rng(seed);
  simmpi::WorldOptions opts = app.world;
  opts.seed = 1;
  simmpi::World world(program, opts);
  const std::uint64_t t_inject = rng.below(golden.instructions);
  core::Injector injector(region, dict_ptr);
  std::optional<core::AppliedFault> fault;
  while (world.status() == simmpi::JobStatus::kRunning &&
         world.global_instructions() < golden.hang_budget) {
    if (!fault && world.global_instructions() >= t_inject) {
      fault = injector.inject(world, rng);
      if (fault) {
        std::printf("=== injection @ global t=%llu ===\n",
                    static_cast<unsigned long long>(
                        world.global_instructions()));
        std::printf("  rank %d: %s\n", fault->rank, fault->target.c_str());
        svm::Machine& m = world.machine(fault->rank);
        std::printf("  pc = 0x%08x <%s>\n\n", m.regs().pc,
                    symbol_name(program, m.regs().pc));
      }
    }
    world.advance();
  }

  std::printf("=== outcome: ");
  switch (world.status()) {
    case simmpi::JobStatus::kCrashed: {
      const int r = world.failed_rank();
      svm::Machine& m = world.machine(r);
      std::printf("rank %d crashed with %s at 0x%08x ===\n", r,
                  svm::trap_name(m.trap()), m.fault_addr());
      std::printf("  pc = 0x%08x <%s>, global t=%llu\n\n", m.regs().pc,
                  symbol_name(program, m.regs().pc),
                  static_cast<unsigned long long>(
                      world.global_instructions()));
      dump_code_window(program, m, m.regs().pc);
      std::printf("\n  registers:\n");
      for (unsigned i = 0; i < svm::kNumGpr; i += 4) {
        std::printf("    ");
        for (unsigned j = i; j < i + 4; ++j)
          std::printf("r%-2u=0x%08x  ", j, m.regs().gpr[j]);
        std::printf("\n");
      }
      std::printf("\n  stack walk:\n");
      for (const auto& f : svm::walk_stack(m)) {
        std::printf("    fp=0x%08x ret=0x%08x <%s>%s\n", f.fp, f.ret_addr,
                    symbol_name(program, f.ret_addr),
                    f.user ? "" : "  [MPI library]");
      }
      break;
    }
    case simmpi::JobStatus::kCompleted:
      std::printf("completed (%s) ===\n",
                  world.output() == golden.baseline ? "correct output"
                                                    : "INCORRECT output");
      break;
    default:
      std::printf("status %d ===\n", static_cast<int>(world.status()));
      break;
  }
  std::printf("\nconsole:\n%s", world.console().c_str());
  return 0;
} catch (const fsim::util::SetupError& e) {
  std::fprintf(stderr, "fault_forensics: %s\n", e.what());
  return 1;
}
