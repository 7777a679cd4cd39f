// Ablation (§6.2/§7): NAMD's application-level message checksums.
// Measures (a) the runtime overhead of checksumming every received block
// (paper: ~3%), and (b) the share of manifested message faults the checksum
// converts into App Detected outcomes (paper: 46%).
#include <cstdio>

#include "apps/app.hpp"
#include "bench_util.hpp"

using namespace fsim;

namespace {

struct MsgStats {
  int fired = 0;
  int errors = 0;
  int app_detected = 0;
  int incorrect = 0;
  int crash = 0;
  int hang = 0;
};

MsgStats message_campaign(const apps::App& app, const svm::Program& program,
                          const core::Golden& golden, int runs,
                          std::uint64_t seed, int jobs) {
  MsgStats s;
  const auto outcomes = bench::parallel_outcomes(
      app, program, golden, core::Region::kMessage, nullptr, runs,
      [seed](int i) {
        return util::hash_seed({seed, 0xc5, static_cast<std::uint64_t>(i)});
      },
      jobs);
  for (const core::RunOutcome& out : outcomes) {
    if (!out.msg_fired) continue;
    ++s.fired;
    using M = core::Manifestation;
    if (out.manifestation != M::kCorrect) ++s.errors;
    s.app_detected += out.manifestation == M::kAppDetected;
    s.incorrect += out.manifestation == M::kIncorrect;
    s.crash += out.manifestation == M::kCrash;
    s.hang += out.manifestation == M::kHang;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv, 150);

  std::printf("=== Ablation: NAMD-style message checksums (minimd) ===\n\n");

  apps::MinimdConfig with;
  with.jitter = 0;
  apps::MinimdConfig without = with;
  without.checksums = false;

  const apps::App app_on = apps::make_minimd(with);
  const apps::App app_off = apps::make_minimd(without);
  const svm::Program p_on = app_on.link();
  const svm::Program p_off = app_off.link();
  const core::Golden g_on = core::run_golden(app_on, p_on);
  const core::Golden g_off = core::run_golden(app_off, p_off);

  // Overhead: checksum work is charged per received byte.
  const double overhead =
      100.0 * (static_cast<double>(g_on.instructions) /
                   static_cast<double>(g_off.instructions) -
               1.0);
  std::printf("Runtime overhead of checksums: %.2f%% (paper: ~3%%)\n\n",
              overhead);

  const MsgStats on =
      message_campaign(app_on, p_on, g_on, args.runs, args.seed, args.jobs);
  const MsgStats off =
      message_campaign(app_off, p_off, g_off, args.runs, args.seed, args.jobs);

  util::Table t("Message-fault outcomes (" + std::to_string(args.runs) +
                " armed faults each)");
  t.header({"Variant", "Fired", "Errors", "App Detected", "Crash", "Hang",
            "Incorrect"});
  auto row = [&](const char* name, const MsgStats& s) {
    t.row({name, std::to_string(s.fired), util::fmt_pct(s.errors, s.fired),
           util::fmt_pct(s.app_detected, s.errors),
           util::fmt_pct(s.crash, s.errors), util::fmt_pct(s.hang, s.errors),
           util::fmt_pct(s.incorrect, s.errors)});
  };
  row("checksums ON", on);
  row("checksums OFF", off);
  std::printf("%s\n", t.ascii().c_str());

  std::printf(
      "Paper: NAMD detects 46%% of manifested message errors via its\n"
      "checksums at ~3%% overhead; without them the faults surface as\n"
      "crashes, NaN aborts or silent corruption. The checksum covers only\n"
      "user data — header flips still crash or hang the library.\n");
  return 0;
}
