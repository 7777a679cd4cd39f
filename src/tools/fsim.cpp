// fsim — command-line driver for the fault-sensitivity laboratory.
//
//   fsim run       --app=wavetoy --region=regular --seed=7
//   fsim campaign  --app=minimd --runs=400 [--regions=regular,message]
//                  [--seed=S] [--json] [--csv]
//   fsim batch     --apps=wavetoy,minimd,atmo | --spec=FILE
//                  [--shard=i/N] [--out=FILE] [--checkpoint=FILE]
//                  [--ci=D [--wave=N] [--max-runs=N]]
//                  (several campaigns, one pool; --ci switches to the
//                  adaptive CI-targeted scheduler, docs/STATISTICS.md)
//   fsim resume    ckpt.json [--jobs=N]  (continue a half-finished shard;
//                  adaptive checkpoints resume the wave scheduler)
//   fsim merge     ck0.json ck1.json ...  (fold shard checkpoints)
//   fsim profile   [--app=NAME]            (Table 1 per-process profiles)
//   fsim trace     --app=atmo [--rank=1]   (working-set curves, Tables 5-7)
//   fsim mix       --app=wavetoy [--rank=1]  (instruction mix / hot spots)
//   fsim lint      [--app=NAME|all] [--json] [--werror] [--suppress=p1,p2]
//                  (static diagnostics; nonzero exit on errors)
//   fsim serve     --socket=PATH --state=DIR   (campaign service daemon)
//   fsim worker    --socket=PATH [--name=ID]   (execution worker process)
//   fsim submit    --socket=PATH --tenant=T --spec=FILE
//   fsim status    --socket=PATH [--job=ID] | CKPT-or-SPEC-file
//   fsim fetch     --socket=PATH --job=ID [--out=FILE]
//   fsim shutdown  --socket=PATH             (orderly daemon stop)
//
// Every command is deterministic given its --seed. Options take the
// --name=value form only, and a command refuses any option it does not
// read on the path it takes (docs/CLI.md).
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>

#include "apps/app.hpp"
#include "core/adaptive.hpp"
#include "core/analyze.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "core/reshard.hpp"
#include "core/sampling.hpp"
#include "service/server.hpp"
#include "service/worker.hpp"
#include "simmpi/world.hpp"
#include "svm/analysis/analysis.hpp"
#include "trace/mix.hpp"
#include "trace/profile.hpp"
#include "trace/working_set.hpp"
#include "util/cli.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fsim;

int print_usage() {
  std::printf(
      "usage: fsim <command> [options]\n"
      "  run       --app=NAME --region=REGION [--seed=N]\n"
      "            [--prune=off|full] [--engine=interp|threaded]\n"
      "  campaign  --app=NAME [--runs=N] [--regions=a,b,...] [--seed=N]\n"
      "            [--jobs=N] [--prune=off|full] [--activation]\n"
      "            [--engine=interp|threaded] [--json] [--csv] [--quiet]\n"
      "  batch     --apps=a,b,... | --spec=FILE [--runs=N] [--regions=...]\n"
      "            [--seed=N] [--jobs=N] [--prune=off|full] [--shard=i/N]\n"
      "            [--checkpoint=FILE] [--checkpoint-every=N]\n"
      "            [--ckpt-encoding=json|bin] [--engine=interp|threaded]\n"
      "            [--ci=D] [--confidence=P] [--wave=N] [--max-runs=N]\n"
      "            [--out=FILE] [--json] [--csv] [--activation] [--quiet]\n"
      "  resume    CKPT.json [--jobs=N] [--checkpoint=FILE]\n"
      "            [--checkpoint-every=N] [--ckpt-encoding=json|bin]\n"
      "            [--engine=interp|threaded]\n"
      "            [--ci=D] [--confidence=P] [--wave=N] [--max-runs=N]\n"
      "            [--out=FILE] [--json] [--csv]\n"
      "            [--activation] [--quiet]\n"
      "  merge     CKPT... [--partial-report] [--out=FILE] [--json] [--csv]\n"
      "            [--activation]\n"
      "  analyze   --app=NAME [--runs=N] [--seed=N] [--jobs=N]\n"
      "            [--json] [--csv] [--quiet]  (static masked fractions)\n"
      "  profile   [--app=NAME]\n"
      "  trace     --app=NAME [--rank=K] [--points=N]\n"
      "  mix       --app=NAME [--rank=K]\n"
      "  lint      [--app=NAME|all] [--json] [--werror] [--suppress=p1,p2]\n"
      "  serve     --socket=PATH --state=DIR [--chunk=N]\n"
      "            [--ckpt-encoding=json|bin]  (campaign service daemon)\n"
      "  worker    --socket=PATH [--name=ID] [--jobs=N]\n"
      "            [--checkpoint-every=N]  (pulls work from a daemon)\n"
      "  submit    --socket=PATH --tenant=NAME --spec=FILE\n"
      "  status    --socket=PATH [--job=ID] | CKPT-or-SPEC-file\n"
      "  fetch     --socket=PATH --job=ID [--out=FILE]\n"
      "  shutdown  --socket=PATH  (orderly daemon stop)\n"
      "  help      (this text; also --help)\n"
      "apps: wavetoy | minimd | atmo | jacobi\n"
      "regions: regular | fp | bss | data | stack | text | heap | message\n");
  return 0;
}

int usage() {
  (void)print_usage();
  return 2;
}

/// --jobs=N (default: one worker per hardware thread).
int jobs_option(const util::Cli& cli) {
  return cli.count("jobs",
                   static_cast<int>(util::ThreadPool::default_workers()));
}

/// --rank=K, a rank of the app's world (default 1).
int rank_option(const util::Cli& cli, const apps::App& app) {
  const std::int64_t rank = cli.num("rank", 1);
  if (rank < 0 || rank >= app.world.nranks)
    throw util::SetupError("option --rank expects 0 <= K < " +
                           std::to_string(app.world.nranks) + ", got " +
                           std::to_string(rank));
  return static_cast<int>(rank);
}

/// --shard=i/N: both halves whole integers with 0 <= i < N.
core::ShardSpec parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  std::int64_t i = -1, n = 0;
  if (slash == std::string::npos ||
      !util::Cli::parse_int(text.substr(0, slash), i) ||
      !util::Cli::parse_int(text.substr(slash + 1), n) || i < 0 || i >= n ||
      n > std::numeric_limits<int>::max())
    throw util::SetupError(
        "option --shard expects i/N with 0 <= i < N, got '" + text + "'");
  return core::ShardSpec{static_cast<int>(i), static_cast<int>(n)};
}

/// Report options shared by batch, resume and merge: --out=FILE (stdout
/// when empty) and the --json | --csv | table surface, where --activation
/// adds the activation splits to tables.
struct Report {
  std::string out;
  bool json = false, csv = false, activation = false;
};

Report report_options(const util::Cli& cli) {
  return Report{cli.str("out", ""), cli.flag("json"), cli.flag("csv"),
                cli.flag("activation")};
}

/// Send a report to `path` when given, stdout otherwise.
void write_output(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::printf("%s", text.c_str());
    return;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw util::SetupError("cannot write '" + path + "'");
  out << text;
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", path.c_str(), text.size());
}

/// The items of --option=a,b,...: an empty value is an empty list, and an
/// empty item (a doubled, leading or trailing comma) is refused.
std::vector<std::string> split_csv(const std::string& option,
                                   const std::string& csv) {
  std::vector<std::string> items;
  if (csv.empty()) return items;
  for (std::size_t start = 0;;) {
    const std::size_t comma = csv.find(',', start);
    items.push_back(csv.substr(start, comma - start));
    if (items.back().empty())
      throw util::SetupError("option --" + option +
                             " has an empty item in '" + csv + "'");
    if (comma == std::string::npos) return items;
    start = comma + 1;
  }
}

std::vector<core::Region> parse_region_list(const std::string& csv) {
  std::vector<core::Region> regions;
  for (const std::string& tok : split_csv("regions", csv))
    regions.push_back(core::parse_region(tok));
  return regions;
}

/// --name=VALUE through `parse`, a token parser returning std::optional;
/// `out` keeps its value when the option is absent.
template <typename T, typename Parse>
void enum_option(const util::Cli& cli, const std::string& name,
                 const char* values, Parse parse, T& out) {
  if (!cli.has(name)) return;
  const std::string v = cli.str(name, "");
  const auto parsed = parse(v);
  if (!parsed)
    throw util::SetupError("option --" + name + " expects " + values +
                           ", got '" + v + "'");
  out = *parsed;
}

void parse_prune(const util::Cli& cli, core::PruneLevel& prune) {
  enum_option(cli, "prune", "off|full", core::parse_prune_level, prune);
}

void parse_engine(const util::Cli& cli, svm::exec::EngineKind& engine) {
  enum_option(cli, "engine", "interp|threaded", svm::exec::parse_engine_kind,
              engine);
}

/// --ckpt-encoding=json|bin (sidecar wire format, docs/SERVICE.md).
void parse_ckpt_encoding(const util::Cli& cli,
                         core::CheckpointEncoding& encoding) {
  enum_option(cli, "ckpt-encoding", "json|bin",
              core::parse_checkpoint_encoding, encoding);
}

/// stderr progress display: one updating line per (campaign, region),
/// refreshed every 50 runs; batch and resume prefix the app name.
class Progress final : public core::CampaignObserver {
 public:
  explicit Progress(bool show_app) : show_app_(show_app) {}
  void on_run_done(const core::RunEvent& ev) override {
    if (ev.done == 1 || ev.done == ev.total || ev.done % 50 == 0) {
      std::fprintf(stderr, "\r  ");
      if (show_app_)
        std::fprintf(stderr, "%-8s ", ev.app ? ev.app->c_str() : "?");
      std::fprintf(stderr, "%-13s %4d/%d", core::region_name(ev.region),
                   ev.done, ev.total);
    }
    if (ev.done == ev.total) std::fprintf(stderr, "\n");
  }

 private:
  bool show_app_;
};

int cmd_run(const util::Cli& cli) {
  apps::App app = apps::make_app(cli.str("app", "wavetoy"));
  const core::Region region = core::parse_region(cli.str("region", "regular"));
  core::CampaignConfig cfg;
  cfg.seed = cli.u64("seed", 1);
  parse_engine(cli, cfg.engine);
  cfg.prune = core::PruneLevel::kOff;
  parse_prune(cli, cfg.prune);
  cli.reject_unused();

  // The campaign's preparation: the fault space (dictionaries, analysis,
  // golden ladder) is exactly the one `fsim campaign --seed=S` draws from.
  const core::RunOutcome out = core::prepare(app, cfg).run(region, cfg.seed);
  std::printf("app:     %s\nregion:  %s\nseed:    %llu\nfault:   %s\n",
              app.name.c_str(), core::region_name(region),
              static_cast<unsigned long long>(cfg.seed),
              out.fault_applied ? out.fault_description.c_str()
                                : "(no viable target)");
  if (cfg.prune != core::PruneLevel::kOff)
    std::printf("static:  activation %s%s%s\n",
                core::activation_name(out.activation),
                out.pruned ? ", pruned by rung " : "",
                out.pruned ? core::prune_rung_token(out.prune_rung) : "");
  std::printf("outcome: %s%s%s\n",
              core::manifestation_name(out.manifestation),
              out.failure_detail.empty() ? "" : " — ",
              out.failure_detail.c_str());
  return 0;
}

int cmd_campaign(const util::Cli& cli) {
  apps::App app = apps::make_app(cli.str("app", "wavetoy"));
  core::CampaignConfig cfg;
  cfg.runs_per_region = cli.count("runs", 200);
  cfg.seed = cli.u64("seed", 0xfa);
  core::ExecPolicy exec;
  exec.jobs = jobs_option(cli);
  if (cli.has("regions")) cfg.regions = parse_region_list(cli.str("regions", ""));
  parse_prune(cli, cfg.prune);
  parse_engine(cli, cfg.engine);
  Progress progress(false);
  if (!cli.flag("quiet")) exec.observer = &progress;
  const bool json = cli.flag("json"), csv = cli.flag("csv");
  const bool activation = cli.flag("activation");
  cli.reject_unused();
  std::printf("campaign: %s, %d runs/region, seed %llu, %d jobs "
              "(d = %.1f%% at 95%%)\n\n",
              app.name.c_str(), cfg.runs_per_region,
              static_cast<unsigned long long>(cfg.seed), exec.jobs,
              100.0 * core::estimation_error(
                          0.05, static_cast<std::uint64_t>(cfg.runs_per_region)));
  const core::CampaignResult res = core::run_campaign(app, cfg, exec);
  if (json) {
    std::printf("%s\n", core::campaign_json(res).c_str());
  } else if (csv) {
    std::printf("%s", core::campaign_csv(res).c_str());
  } else {
    std::printf("%s", core::format_campaign(res).c_str());
    if (activation) {
      const std::string act = core::format_activation(res);
      if (!act.empty()) std::printf("\n%s", act.c_str());
    }
  }
  return 0;
}

/// Per-campaign batch report: tables (then `tables`, plus optional
/// activation splits and the batch-wide per-app activation summary), JSON
/// or CSV, matching the single-campaign `fsim campaign` surface.
std::string render_batch(const Report& report, const core::BatchResult& res,
                         const std::string& tables = "") {
  if (report.json) return core::batch_json(res) + "\n";
  if (report.csv) return core::batch_csv(res);
  std::string out = core::format_batch(res) + tables;
  if (report.activation) {
    for (const auto& campaign : res.campaigns) {
      const std::string act = core::format_activation(campaign);
      if (!act.empty()) out += "\n" + act;
    }
    const std::string combined = core::format_batch_activation(res);
    if (!combined.empty()) out += "\n" + combined;
  }
  return out;
}

/// --checkpoint=FILE (default `path`); --checkpoint-every and
/// --ckpt-encoding are read only when a sidecar is written.
void parse_checkpointing(const util::Cli& cli, const std::string& path,
                         core::ExecPolicy& policy) {
  policy.checkpoint_path = cli.str("checkpoint", path);
  if (policy.checkpoint_path.empty()) {
    for (const char* dependent : {"checkpoint-every", "ckpt-encoding"})
      if (cli.has(dependent))
        throw util::SetupError("option --" + std::string(dependent) +
                               " requires --checkpoint=FILE");
    return;
  }
  policy.checkpoint_every = cli.count("checkpoint-every", 64);
  parse_ckpt_encoding(cli, policy.checkpoint_encoding);
}

/// The one dispatch behind `fsim batch` and `fsim resume`: run the batch
/// under `exec` (in CI-targeted waves when `adaptive` holds a policy) and
/// write its output — the result document on --json, CSV on --csv;
/// otherwise a shard writes its finished checkpoint (what `fsim merge`
/// folds) and a whole batch its tables.
void run_and_report(const std::vector<core::BatchEntry>& entries,
                    const core::ExecPolicy& exec,
                    const std::optional<core::AdaptivePolicy>& adaptive,
                    const Report& report) {
  core::BatchResult res;
  std::string json, tables;
  if (adaptive) {
    core::AdaptiveConfig ac;
    ac.exec() = exec;
    ac.policy = *adaptive;
    core::AdaptiveResult ar = core::run_adaptive(entries, ac);
    json = core::adaptive_json(ar);
    tables = "\n" + core::format_adaptive(ar);
    res = std::move(ar.batch);
  } else {
    core::BatchConfig bc;
    bc.exec() = exec;
    res = core::run_batch(entries, bc);
    json = core::batch_json(res);
  }
  if (report.json)
    write_output(report.out, json + "\n");
  else if (res.shard.count > 1 && !report.csv)
    write_output(report.out, core::checkpoint_json(core::batch_to_checkpoint(
                                 res, adaptive)) + "\n");
  else
    write_output(report.out, render_batch(report, res, tables));
}

/// Adaptive (--ci) knobs shared by `fsim batch` and `fsim resume`.
/// `policy` arrives with the defaults (or, on resume, the checkpoint's
/// recorded policy) and only explicitly given flags override it.
core::AdaptivePolicy parse_adaptive_policy(const util::Cli& cli,
                                           core::AdaptivePolicy policy) {
  policy.ci = cli.real("ci", policy.ci);
  if (cli.has("confidence"))
    policy.alpha = 1.0 - cli.real("confidence", 1.0 - policy.alpha);
  policy.wave = cli.count("wave", policy.wave);
  return policy;
}

/// Per-cell cap in --ci mode: --max-runs overrides every campaign;
/// otherwise an explicit --runs (or a spec file's runs) stands, and a bare
/// `fsim batch --ci=...` raises the cap to 2000 so the default 200 does
/// not silently truncate cells that need the full Cochran budget (385 at
/// d=5%, 95%).
void apply_max_runs(const util::Cli& cli, bool explicit_runs,
                    std::vector<core::CampaignSpec>& specs) {
  int cap = 0;
  if (cli.has("max-runs"))
    cap = cli.count("max-runs", 0);
  else if (!explicit_runs)
    cap = 2000;
  if (cap > 0)
    for (auto& spec : specs) spec.runs_per_region = cap;
}

int cmd_batch(const util::Cli& cli) {
  // Campaign list: an explicit spec file, or inline flags applied to every
  // app in --apps (default: the paper's three-application suite).
  std::vector<core::CampaignSpec> specs;
  if (cli.has("spec")) {
    specs = core::parse_batch_spec(util::read_file(cli.str("spec", "")));
    // --engine on the command line overrides whatever the spec file says —
    // engines are bit-identical, so this never changes the batch identity.
    svm::exec::EngineKind engine = svm::exec::EngineKind::kThreaded;
    parse_engine(cli, engine);
    if (cli.has("engine"))
      for (auto& spec : specs) spec.engine = engine;
  } else {
    core::CampaignConfig base;
    base.runs_per_region = cli.count("runs", 200);
    base.seed = cli.u64("seed", 0xfa);
    if (cli.has("regions"))
      base.regions = parse_region_list(cli.str("regions", ""));
    parse_prune(cli, base.prune);
    parse_engine(cli, base.engine);
    for (const std::string& name :
         split_csv("apps", cli.str("apps", "wavetoy,minimd,atmo")))
      specs.push_back(core::spec_of(name, base));
    if (specs.empty()) {
      std::fprintf(stderr, "batch: empty --apps list\n");
      return 1;
    }
  }

  // Adaptive (--ci) knobs are read only on the adaptive path.
  std::optional<core::AdaptivePolicy> adaptive;
  if (cli.has("ci")) {
    apply_max_runs(cli, cli.has("spec") || cli.has("runs"), specs);
    adaptive = parse_adaptive_policy(cli, core::AdaptivePolicy{});
  }

  core::ExecPolicy exec;
  exec.jobs = jobs_option(cli);
  parse_checkpointing(cli, "", exec);
  if (cli.has("shard")) exec.shard = parse_shard(cli.str("shard", ""));
  const bool quiet = cli.flag("quiet");
  const Report report = report_options(cli);
  cli.reject_unused();

  std::vector<core::BatchEntry> entries = core::entries_for_specs(specs);
  Progress progress(true);
  if (!quiet) {
    exec.observer = &progress;
    std::fprintf(stderr, "batch: %zu campaigns, %d jobs, shard %d/%d",
                 entries.size(), exec.jobs, exec.shard.index,
                 exec.shard.count);
    if (adaptive)
      std::fprintf(stderr, ", adaptive ci %.3g at %.3g%% (wave %d)",
                   adaptive->ci, 100.0 * (1.0 - adaptive->alpha),
                   adaptive->wave);
    std::fprintf(stderr, "\n");
  }
  run_and_report(entries, exec, adaptive, report);
  return 0;
}

int cmd_resume(const util::Cli& cli) {
  const std::vector<std::string>& files = cli.positional();
  if (files.size() != 1) {
    std::fprintf(stderr,
                 "resume: expected exactly one checkpoint file\n"
                 "usage: fsim resume CKPT.json [--jobs=N] [--out=FILE]\n");
    return 2;
  }
  core::Checkpoint ck =
      core::parse_checkpoint_json(util::read_file(files[0]));
  // The checkpoint records the engine the shard ran under, but engines are
  // bit-identical: resuming under a different one is always legal.
  svm::exec::EngineKind engine = svm::exec::EngineKind::kThreaded;
  parse_engine(cli, engine);
  if (cli.has("engine"))
    for (auto& spec : ck.specs) spec.engine = engine;

  core::ExecPolicy exec;
  exec.jobs = jobs_option(cli);
  exec.shard = ck.shard;
  exec.resume = &ck;
  // Keep checkpointing into the same sidecar (a second crash resumes from
  // wherever this invocation got to) unless redirected with --checkpoint.
  parse_checkpointing(cli, files[0], exec);

  // An adaptive checkpoint resumes the wave scheduler with its recorded
  // policy; --ci/--confidence/--wave/--max-runs override it (equivalent to
  // a fresh run with the new policy when --wave is unchanged). A new cap
  // rewrites the specs (the cap is spec identity) before the entries are
  // built, exactly as a fresh `batch --ci --max-runs` would have.
  // run_adaptive itself rejects --ci against a fixed-n checkpoint.
  std::optional<core::AdaptivePolicy> adaptive;
  if (ck.adaptive || cli.has("ci")) {
    if (ck.adaptive) apply_max_runs(cli, true, ck.specs);
    adaptive = parse_adaptive_policy(
        cli, ck.adaptive ? *ck.adaptive : core::AdaptivePolicy{});
  }
  const bool quiet = cli.flag("quiet");
  const Report report = report_options(cli);
  cli.reject_unused(true);

  std::vector<core::BatchEntry> entries = core::entries_for_specs(ck.specs);
  Progress progress(true);
  if (!quiet) {
    exec.observer = &progress;
    std::fprintf(stderr,
                 "resume: %zu campaigns, shard %d/%d, %d of %d runs already "
                 "checkpointed, %d jobs\n",
                 entries.size(), exec.shard.index, exec.shard.count,
                 ck.completed_runs(), ck.owned_runs(), exec.jobs);
  }
  run_and_report(entries, exec, adaptive, report);
  return 0;
}

int cmd_merge(const util::Cli& cli) {
  const std::vector<std::string>& files = cli.positional();
  if (files.empty()) {
    std::fprintf(stderr,
                 "merge: no input files given\n"
                 "usage: fsim merge FILE... [--partial-report] [--out=FILE] "
                 "[--json] [--csv]\n");
    return 2;
  }
  const bool allow_partial = cli.flag("partial-report");
  const Report report = report_options(cli);
  cli.reject_unused(true);
  // Every input is a checkpoint of some shard; they fold into one
  // whole-grid master. Without --partial-report an unfinished input or a
  // grid the inputs leave uncovered is refused.
  std::optional<core::Checkpoint> master;
  for (const auto& f : files) {
    try {
      const core::Checkpoint ck =
          core::parse_checkpoint_json(util::read_file(f));
      if (!allow_partial && !ck.complete())
        throw util::SetupError(
            "incomplete checkpoint (" + std::to_string(ck.completed_runs()) +
            " of " + std::to_string(ck.owned_runs()) +
            " shard runs); finish it with 'fsim resume', or pass "
            "--partial-report to fold the partial counts anyway");
      if (!master) {
        master =
            core::make_checkpoint(ck.specs, ck.goldens, core::ShardSpec{});
        master->adaptive = ck.adaptive;
      }
      core::fold_checkpoint(*master, ck);
    } catch (const util::SetupError& e) {
      throw util::SetupError("'" + f + "': " + e.what());
    }
  }
  const bool partial = !master->complete();
  if (partial && !allow_partial)
    throw util::SetupError(
        "the inputs leave part of the grid uncovered (a shard is missing); "
        "pass --partial-report to fold the partial counts anyway");
  std::string out = render_batch(report, core::checkpoint_to_batch(*master));
  if (partial && !report.json && !report.csv)
    out += "\nNOTE: partial report — the inputs do not cover the whole "
           "grid; counts cover only their completed runs.\n";
  write_output(report.out, out);
  return 0;
}

/// `suppress` (--suppress=p1,p2) replaces the app's default suppressions
/// when given.
int lint_one(const apps::App& app, const svm::Program& program,
             const std::optional<std::vector<std::string>>& suppress,
             bool json, bool werror) {
  svm::analysis::LintOptions opts;
  opts.suppress = suppress ? *suppress : app.lint_suppress;
  const svm::analysis::LintResult res = svm::analysis::run_lint(
      svm::analysis::ProgramAnalysis(program), opts);
  if (json) {
    std::printf("%s\n", svm::analysis::lint_json(res, app.name).c_str());
  } else {
    std::printf("%s", svm::analysis::format_lint(res, app.name).c_str());
  }
  if (res.errors > 0) return 1;
  if (werror && res.warnings > 0) return 1;
  return 0;
}

int cmd_lint(const util::Cli& cli) {
  const bool werror = cli.flag("werror");
  const bool json = cli.flag("json");
  const std::string which = cli.str("app", "all");
  std::optional<std::vector<std::string>> suppress;
  if (cli.has("suppress"))
    suppress = split_csv("suppress", cli.str("suppress", ""));
  cli.reject_unused();
  std::vector<std::string> names{which};
  if (which == "all") {
    names = apps::app_names();
    names.push_back("jacobi");
  }
  std::vector<apps::App> linted;
  std::vector<svm::Program> programs;
  for (const std::string& name : names) {
    linted.push_back(apps::make_app(name));
    programs.push_back(linted.back().link());
  }
  // --suppress items are symbol-name prefixes: one that names no symbol in
  // any linted app is a typo that would silently drop the defaults.
  const std::vector<std::string> none;
  for (const std::string& prefix : suppress ? *suppress : none) {
    bool matches = false;
    for (const svm::Program& p : programs)
      for (const svm::Symbol& sym : p.symbols())
        matches |= sym.name.compare(0, prefix.size(), prefix) == 0;
    if (!matches)
      throw util::SetupError(
          "--suppress item '" + prefix + "' is a prefix of no symbol in " +
          (which == "all" ? "any linted app" : which));
  }
  int rc = 0;
  for (std::size_t i = 0; i < linted.size(); ++i)
    rc |= lint_one(linted[i], programs[i], suppress, json, werror);
  return rc;
}

int cmd_analyze(const util::Cli& cli) {
  apps::App app = apps::make_app(cli.str("app", "wavetoy"));
  core::CampaignConfig cfg;
  cfg.runs_per_region = cli.count("runs", 200, 0);
  cfg.seed = cli.u64("seed", 0xfa);
  core::ExecPolicy exec;
  exec.jobs = jobs_option(cli);
  if (cli.has("regions")) cfg.regions = parse_region_list(cli.str("regions", ""));
  const bool quiet = cli.flag("quiet");
  const bool json = cli.flag("json"), csv = cli.flag("csv");
  cli.reject_unused();
  if (!quiet && cfg.runs_per_region > 0)
    std::fprintf(stderr, "analyze: %s, %d-run reference campaign...\n",
                 app.name.c_str(), cfg.runs_per_region);
  const core::AnalyzeResult res = core::analyze_app(app, cfg, exec);
  if (json)
    std::printf("%s\n", core::analyze_json(res).c_str());
  else if (csv)
    std::printf("%s", core::analyze_csv(res).c_str());
  else
    std::printf("%s", core::format_analyze(res).c_str());
  return 0;
}

int cmd_profile(const util::Cli& cli) {
  std::vector<trace::ProcessProfile> profiles;
  const std::string app = cli.str("app", "");
  cli.reject_unused();
  if (!app.empty()) {
    profiles.push_back(trace::profile_app(apps::make_app(app)));
  } else {
    for (const auto& name : apps::app_names())
      profiles.push_back(trace::profile_app(apps::make_app(name)));
  }
  std::printf("%s", trace::format_profiles(profiles).c_str());
  return 0;
}

int cmd_trace(const util::Cli& cli) {
  apps::App app = apps::make_app(cli.str("app", "wavetoy"));
  const int rank = rank_option(cli, app);
  const auto points = static_cast<std::size_t>(cli.count("points", 20));
  cli.reject_unused();
  svm::Program program = app.link();
  simmpi::World world(program, app.world);
  trace::AccessTracer tracer(world.machine(rank));
  if (world.run(2'000'000'000ull) != simmpi::JobStatus::kCompleted) {
    std::fprintf(stderr, "run failed:\n%s", world.console().c_str());
    return 1;
  }
  tracer.set_heap_denominator(world.process(rank).heap().peak_usage());
  std::printf("%s\n", trace::format_series(tracer.text_series(points)).c_str());
  std::printf("%s",
              trace::format_series(tracer.data_combined_series(points)).c_str());
  return 0;
}

int cmd_mix(const util::Cli& cli) {
  apps::App app = apps::make_app(cli.str("app", "wavetoy"));
  const int rank = rank_option(cli, app);
  cli.reject_unused();
  svm::Program program = app.link();
  simmpi::World world(program, app.world);
  trace::InstructionMixProfiler mix(program, world.machine(rank));
  if (world.run(2'000'000'000ull) != simmpi::JobStatus::kCompleted) {
    std::fprintf(stderr, "run failed\n");
    return 1;
  }
  std::printf("%s", mix.format().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Service client/daemon commands (docs/SERVICE.md).

std::string require_socket(const util::Cli& cli) {
  if (!cli.has("socket"))
    throw util::SetupError("option --socket=PATH is required");
  return cli.str("socket", "");
}

/// One {"op": op, fields...} request/reply round-trip with the daemon.
/// Throws SetupError on a connection failure or an {"ok": false} reply.
util::JsonValue service_request(
    const std::string& socket_path, const std::string& op,
    const std::vector<std::pair<std::string, std::string>>& fields = {}) {
  util::JsonWriter w;
  w.begin_object();
  w.key("op").value(op);
  for (const auto& [key, value] : fields) w.key(key).value(value);
  w.end_object();
  util::UnixSocket sock = util::UnixSocket::connect(socket_path);
  sock.write_line(w.str());
  std::string reply;
  if (!sock.read_line(reply))
    throw util::SetupError("daemon closed the connection without replying");
  util::JsonValue doc = util::parse_json(reply);
  if (!doc.at("ok").as_bool())
    throw util::SetupError(doc.at("error").as_string());
  return doc;
}

int cmd_serve(const util::Cli& cli) {
  service::ServeOptions opts;
  opts.socket_path = require_socket(cli);
  if (!cli.has("state"))
    throw util::SetupError("option --state=DIR is required");
  opts.state_dir = cli.str("state", "");
  if (cli.has("chunk"))
    opts.chunk = static_cast<std::uint64_t>(cli.count("chunk", 1));
  parse_ckpt_encoding(cli, opts.encoding);
  cli.reject_unused();
  return service::serve(opts);
}

int cmd_worker(const util::Cli& cli) {
  service::WorkerOptions opts;
  opts.socket_path = require_socket(cli);
  opts.name = cli.str("name", "w" + std::to_string(::getpid()));
  opts.jobs = cli.count("jobs", 1);
  opts.checkpoint_every = cli.count("checkpoint-every", 16);
  cli.reject_unused();
  return service::run_worker(opts);
}

int cmd_submit(const util::Cli& cli) {
  if (!cli.has("spec"))
    throw util::SetupError("option --spec=FILE is required");
  const std::string socket = require_socket(cli);
  const std::string tenant = cli.str("tenant", "default");
  const std::string spec = util::read_file(cli.str("spec", ""));
  cli.reject_unused();
  const util::JsonValue reply =
      service_request(socket, "submit", {{"tenant", tenant}, {"spec", spec}});
  std::printf("%s\n", reply.at("job").as_string().c_str());
  return 0;
}

/// Print the status table of a checkpoint in either encoding (a file, or
/// the job master checkpoint a daemon's status reply carries) or of a spec
/// file (the not-yet-started grid). Documents with a "kind" are
/// checkpoints (or refused as one); spec files carry none. Both surfaces
/// share this reader and formatter, so they agree by construction.
void print_status(const std::string& text) {
  core::Checkpoint ck;
  if (util::parse_json(text).find("kind")) {
    ck = core::parse_checkpoint_json(text);
  } else {
    const std::vector<core::CampaignSpec> specs =
        core::parse_batch_spec(text);
    ck = core::make_checkpoint(
        specs, std::vector<core::Golden>(specs.size()), core::ShardSpec{});
  }
  std::printf("%s", core::format_checkpoint_status(
                        core::checkpoint_status(ck)).c_str());
}

int cmd_status(const util::Cli& cli) {
  if (!cli.positional().empty()) {
    cli.reject_unused(true);
    print_status(util::read_file(cli.positional()[0]));
    return 0;
  }
  const std::string socket = require_socket(cli);
  const bool one_job = cli.has("job");
  std::vector<std::pair<std::string, std::string>> fields;
  if (one_job) fields.emplace_back("job", cli.str("job", ""));
  cli.reject_unused();
  const util::JsonValue reply = service_request(socket, "status", fields);
  const auto& jobs = reply.at("jobs").items();
  if (jobs.empty()) {
    std::printf("no %s\n", one_job ? "such job" : "jobs");
    return one_job ? 1 : 0;
  }
  for (const auto& job : jobs) {
    std::printf("job %s  tenant=%s  state=%s\n",
                job.at("id").as_string().c_str(),
                job.at("tenant").as_string().c_str(),
                job.at("state").as_string().c_str());
    print_status(job.at("checkpoint").as_string());
    std::printf("\n");
  }
  return 0;
}

int cmd_fetch(const util::Cli& cli) {
  if (!cli.has("job"))
    throw util::SetupError("option --job=ID is required");
  const std::string socket = require_socket(cli);
  const std::string job = cli.str("job", "");
  const std::string out = cli.str("out", "");
  cli.reject_unused();
  const util::JsonValue reply = service_request(socket, "fetch", {{"job", job}});
  write_output(out, reply.at("result").as_string());
  return 0;
}

int cmd_shutdown(const util::Cli& cli) {
  const std::string socket = require_socket(cli);
  cli.reject_unused();
  (void)service_request(socket, "shutdown");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  util::Cli cli(argc - 1, argv + 1);
  try {
    if (command == "run") return cmd_run(cli);
    if (command == "campaign") return cmd_campaign(cli);
    if (command == "batch") return cmd_batch(cli);
    if (command == "resume") return cmd_resume(cli);
    if (command == "merge") return cmd_merge(cli);
    if (command == "analyze") return cmd_analyze(cli);
    if (command == "profile") return cmd_profile(cli);
    if (command == "trace") return cmd_trace(cli);
    if (command == "mix") return cmd_mix(cli);
    if (command == "lint") return cmd_lint(cli);
    if (command == "serve") return cmd_serve(cli);
    if (command == "worker") return cmd_worker(cli);
    if (command == "submit") return cmd_submit(cli);
    if (command == "status") return cmd_status(cli);
    if (command == "fetch") return cmd_fetch(cli);
    if (command == "shutdown") return cmd_shutdown(cli);
    if (command == "help" || command == "--help" || command == "-h")
      return print_usage();
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsim %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
