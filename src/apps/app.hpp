// Benchmark application suite.
//
// Scaled-down analogues of the paper's three test codes (§4.2), written in
// SVM assembly so faults hit real instructions, registers and data:
//
//  * wavetoy — Cactus Wavetoy analogue: hyperbolic PDE (leapfrog wave
//    equation) with ghost-zone halo exchange, low-amplitude fields, and
//    low-precision plain-text output at the end of the run. No internal
//    error checking (Table 2 records no detected errors for Cactus).
//  * minimd  — NAMD analogue: particle dynamics with ring exchange of
//    position blocks, application-level message checksums, NaN/bound
//    consistency checks on the energy, per-step console energy output, and
//    nondeterministic reduction order (scheduler jitter).
//  * atmo    — CAM analogue: column physics with many small collectives
//    (control-message dominated traffic), a moisture lower-bound check that
//    aborts the run, and a large, mostly untouched BSS array.
//
// Each generator returns the assembly for the *user* translation unit; the
// caller links it with simmpi::stub_library_asm().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simmpi/world.hpp"
#include "svm/program.hpp"

namespace fsim::apps {

/// Which stream is compared against the fault-free reference to detect
/// silent data corruption (§5.1 "Incorrect Output"). NAMD's file output is
/// nondeterministic, so the paper compares its console output instead.
enum class BaselineStream : std::uint8_t { kOutputFile, kConsole };

struct App {
  std::string name;
  std::string user_asm;
  simmpi::WorldOptions world;
  BaselineStream baseline = BaselineStream::kOutputFile;
  /// Hang timeout: budget = factor * fault-free instruction count (§5.1
  /// waits one minute past the expected completion time).
  double hang_budget_factor = 3.0;
  /// Symbol-name prefixes whose `fsim lint` warnings are intentional and
  /// suppressed (the cold-code regions exist precisely to be unreachable).
  std::vector<std::string> lint_suppress;

  /// Assemble the user unit together with the MPI stub library.
  svm::Program link() const;
};

// --- Wavetoy (Cactus analogue) ---
struct WavetoyConfig {
  int ranks = 8;
  int columns = 12;        // interior columns per rank
  int rows = 16;           // rows per column (values replicate row-wise)
  int ghost = 6;           // ghost columns exchanged per step (3 timelevels
                           // x ghost width 2, as Cactus synchronises)
  int steps = 20;
  int out_digits = 4;      // plain-text output precision (%.Ng)
  bool binary_output = false;  // §6.2 ablation: full-precision output
  double amplitude = 0.01;     // fields stay near zero, like Cactus traffic
  bool high_register_pressure = true;  // §6.1.1 Springer ablation
  int cold_functions = 40;     // never-executed utility code (§6.1.2)
  int cold_heap_arrays = 4;    // allocated+initialised but never read
};
App make_wavetoy(const WavetoyConfig& config = {});

// --- MiniMD (NAMD analogue) ---
struct MinimdConfig {
  int ranks = 8;
  int atoms = 12;          // atoms per rank
  int steps = 12;
  bool checksums = true;       // application-level message checksums
  bool nan_checks = true;      // energy consistency checks
  int console_digits = 6;      // per-step console energy precision
  std::uint64_t jitter = 64;   // scheduler jitter -> nondeterministic order
  int cold_functions = 100;    // never-executed utility code
  std::uint32_t cold_heap_bytes = 12288;  // allocated but never read
};
App make_minimd(const MinimdConfig& config = {});

// --- Atmo (CAM analogue) ---
struct AtmoConfig {
  int ranks = 8;
  int columns = 48;        // atmosphere columns per rank
  int steps = 10;
  bool moisture_check = true;  // lower-bound abort (App Detected)
  int out_digits = 5;
  std::uint32_t bss_table_bytes = 8192;  // cold climatology table in BSS
  int cold_functions = 40;               // never-executed utility code
  std::uint32_t cold_heap_bytes = 8192;  // work arena, barely used
};
App make_atmo(const AtmoConfig& config = {});

// --- Jacobi (naturally fault-tolerant iterative solver, §8.2) ---
// Not part of the paper's suite; demonstrates the related-work claim
// (Geist/Engelmann, Baudet) that iterative methods absorb perturbations:
// "a small error or lost data only slows convergence rather than leading
// to wrong results". Runs until the residual converges, so a mid-run bit
// flip costs extra iterations, not correctness.
struct JacobiConfig {
  int ranks = 4;
  int cells = 4;             // interior cells per rank
  double tolerance = 1e-14;  // on the global squared update norm
                             // (tight enough that the converged iterate is
                             //  identical at out_digits precision)
  int check_every = 8;       // iterations between convergence allreduces
  int max_iterations = 20000;
  int out_digits = 3;
};
App make_jacobi(const JacobiConfig& config = {});

/// Default-configured app by name ("wavetoy" | "minimd" | "atmo" |
/// "jacobi").
App make_app(const std::string& name);

/// Per-campaign overrides of an app's generator config — the subset a
/// `fsim-batch-v2` spec file may set per campaign. `0` keeps the app's
/// default; any override changes the linked image, so it is part of the
/// campaign's identity (specs, results and checkpoints all carry it, and
/// mismatches are refused at merge/resume time).
struct AppParams {
  int ranks = 0;  // world size (0 = app default)
  int steps = 0;  // timesteps; for jacobi this caps max_iterations

  bool operator==(const AppParams&) const = default;
};

/// App by name with per-campaign overrides applied. Throws SetupError on an
/// unknown name or an out-of-range override.
App make_app(const std::string& name, const AppParams& params);
/// The paper's three-application suite (drives Tables 1-7).
std::vector<std::string> app_names();

}  // namespace fsim::apps
