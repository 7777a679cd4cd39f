// Extension analysis (§8.2): naturally fault-tolerant algorithms.
// The paper's related work cites Geist/Engelmann and Baudet: iterative
// methods absorb small errors — "a small error or lost data only slows
// convergence rather than leading to wrong results".
//
// The claim concerns perturbation of the *solution state*, so we inject
// single bit flips directly into the interior solution arrays of two
// solvers and compare:
//   * jacobi  — iterates until a residual converges: the contraction pulls
//     the perturbed iterate back to the fixed point (cost: extra sweeps);
//   * wavetoy — runs a fixed number of leapfrog steps: the perturbation is
//     conserved by the stable scheme and lands in the output.
#include <cstdio>

#include "apps/app.hpp"
#include "bench_util.hpp"
#include "simmpi/world.hpp"
#include "util/bits.hpp"

using namespace fsim;

namespace {

struct Tally {
  int runs = 0;
  int correct = 0;
  int incorrect = 0;
  int hang = 0;
  int crash = 0;
  long extra_iters = 0;  // Jacobi only: recovery cost over recovered runs
  int recovered = 0;
};

int iters_of(simmpi::World& world) {
  const std::string console = world.console();
  const auto pos = console.find("ITERS ");
  return pos == std::string::npos ? -1
                                  : std::atoi(console.c_str() + pos + 6);
}

/// Flip one bit of a random interior solution value of a random rank.
using SolutionFlipper = void (*)(const svm::Program&, simmpi::World&,
                                 util::Rng&);

void flip_jacobi_solution(const svm::Program& program, simmpi::World& world,
                          util::Rng& rng) {
  const apps::JacobiConfig cfg;
  const int rank = static_cast<int>(rng.below(cfg.ranks));
  const svm::Symbol* sym =
      program.find_symbol(rng.chance(0.5) ? "ubuf" : "unbuf");
  const svm::Addr cell =
      sym->address + 8 * (1 + static_cast<svm::Addr>(rng.below(cfg.cells)));
  world.machine(rank).memory().flip_bit(
      cell + static_cast<svm::Addr>(rng.below(8)),
      static_cast<unsigned>(rng.below(8)));
}

void flip_wavetoy_solution(const svm::Program& program, simmpi::World& world,
                           util::Rng& rng) {
  const apps::WavetoyConfig cfg;
  const int rank = static_cast<int>(rng.below(cfg.ranks));
  // The timelevel arrays live on the heap; their base addresses sit in the
  // u_p / u_old_p / u_new_p globals.
  static const char* kPtrs[] = {"u_old_p", "u_p", "u_new_p"};
  const svm::Symbol* ptr = program.find_symbol(kPtrs[rng.below(3)]);
  std::uint32_t base = 0;
  if (!world.machine(rank).memory().peek32(ptr->address, base) || base == 0)
    return;  // arrays not allocated yet; skip (counted as correct)
  const int colb = cfg.rows * 8;
  const svm::Addr col =
      static_cast<svm::Addr>(cfg.ghost + rng.below(cfg.columns));
  const svm::Addr cell =
      base + col * static_cast<svm::Addr>(colb) +
      8 * static_cast<svm::Addr>(rng.below(cfg.rows));
  world.machine(rank).memory().flip_bit(
      cell + static_cast<svm::Addr>(rng.below(8)),
      static_cast<unsigned>(rng.below(8)));
}

Tally campaign(const apps::App& app, SolutionFlipper flip, int runs,
               std::uint64_t seed, bool track_iters) {
  Tally t;
  const svm::Program program = app.link();
  const core::Golden golden = core::run_golden(app, program);

  int golden_iters = 0;
  if (track_iters) {
    simmpi::World world(program, app.world);
    world.run(golden.hang_budget);
    golden_iters = iters_of(world);
  }

  for (int i = 0; i < runs; ++i) {
    util::Rng rng(
        util::hash_seed({seed, 0xf7, static_cast<std::uint64_t>(i)}));
    simmpi::WorldOptions opts = app.world;
    opts.seed = 1;
    simmpi::World world(program, opts);
    // Inject somewhere in the middle 80% of the run, so the solver has at
    // least a little room to react (the claim is about mid-computation
    // perturbations, not races with the output phase).
    const std::uint64_t t_inject =
        golden.instructions / 10 + rng.below(golden.instructions * 8 / 10);
    bool injected = false;
    while (world.status() == simmpi::JobStatus::kRunning &&
           world.global_instructions() < golden.hang_budget) {
      if (!injected && world.global_instructions() >= t_inject) {
        flip(program, world, rng);
        injected = true;
      }
      world.advance();
    }
    ++t.runs;
    switch (world.status()) {
      case simmpi::JobStatus::kCompleted:
        if (world.output() == golden.baseline) {
          ++t.correct;
          if (track_iters) {
            const int it = iters_of(world);
            if (it > golden_iters) {
              ++t.recovered;
              t.extra_iters += it - golden_iters;
            }
          }
        } else {
          ++t.incorrect;
        }
        break;
      case simmpi::JobStatus::kCrashed:
      case simmpi::JobStatus::kMpiFatal:
        ++t.crash;
        break;
      default:
        ++t.hang;
        break;
    }
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv, 150);

  std::printf(
      "=== Sec 8.2 extension: naturally fault-tolerant algorithms ===\n\n");

  const Tally jacobi = campaign(apps::make_jacobi(), flip_jacobi_solution,
                                args.runs, args.seed, true);
  const Tally wavetoy = campaign(apps::make_wavetoy(), flip_wavetoy_solution,
                                 args.runs, args.seed, false);

  util::Table t(
      "Single-bit flips in the interior solution arrays (" +
      std::to_string(args.runs) + " runs each)");
  t.header({"Application", "Correct", "Incorrect", "Hang", "Crash"});
  auto row = [&](const char* name, const Tally& x) {
    t.row({name, util::fmt_pct(x.correct, x.runs),
           util::fmt_pct(x.incorrect, x.runs), util::fmt_pct(x.hang, x.runs),
           util::fmt_pct(x.crash, x.runs)});
  };
  row("jacobi (iterates until converged)", jacobi);
  row("wavetoy (fixed step count)", wavetoy);
  std::printf("%s\n", t.ascii().c_str());

  if (jacobi.recovered > 0) {
    std::printf(
        "jacobi recovered from %d absorbed faults, paying on average %.1f\n"
        "extra sweeps each — slower convergence instead of wrong results.\n\n",
        jacobi.recovered,
        static_cast<double>(jacobi.extra_iters) / jacobi.recovered);
  }
  std::printf(
      "Paper (Sec 8.2): iterative algorithms' \"outputs are resilient to\n"
      "perturbation during the calculations... A small error or lost data\n"
      "only slow convergence rather than leading to wrong results.\" The\n"
      "convergent solver turns solution-state flips into extra sweeps (or,\n"
      "for NaN/Inf corruption, a hang at the convergence test); the\n"
      "fixed-step solver carries the perturbation into its output.\n");
  return 0;
}
