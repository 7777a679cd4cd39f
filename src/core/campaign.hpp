// Campaign driver: many injected runs per region, aggregated into the
// paper's result tables (Tables 2-4).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/execpolicy.hpp"
#include "core/outcome.hpp"
#include "core/run.hpp"

namespace fsim::core {

struct Checkpoint;  // core/checkpoint.hpp
struct RegionResult;

/// Event describing one completed injected run inside a batch. `done` and
/// `total` count this shard's grid points for the (campaign, region) slot;
/// after a resume, `done` continues from the checkpoint's baseline.
struct RunEvent {
  std::size_t campaign = 0;          // index into the batch's entry list
  const std::string* app = nullptr;  // campaign's app name (borrowed)
  Region region{};
  std::size_t slot = 0;       // flattened (campaign, region) index
  int run_index = 0;          // i within (campaign, region)
  std::uint64_t grid_index = 0;  // global grid enumeration index
  const RunOutcome* outcome = nullptr;
  int done = 0;
  int total = 0;
};

/// Callback surface for campaign/batch execution. One interface serves the
/// progress display, the checkpoint sink and batch-aware reporting; the
/// batch serializes all hook invocations (they are never called
/// concurrently with themselves or each other, at any job count), so
/// implementations need no locking of their own.
class CampaignObserver {
 public:
  virtual ~CampaignObserver() = default;
  /// After every completed (or pruned/skipped) injected run.
  virtual void on_run_done(const RunEvent& event) { (void)event; }
  /// When the last shard-owned grid point of a (campaign, region) slot
  /// completes. Not invoked for slots the checkpoint already finished or
  /// the shard does not own.
  virtual void on_region_done(std::size_t campaign, const std::string& app,
                              Region region, int executed) {
    (void)campaign, (void)app, (void)region, (void)executed;
  }
  /// After every atomic checkpoint-file write (`path` is the final,
  /// renamed file; `completed_runs` the total runs it covers).
  virtual void on_checkpoint(const std::string& path, int completed_runs) {
    (void)path, (void)completed_runs;
  }
};

/// What one campaign runs. Every field but `engine` is part of the
/// campaign's spec identity. How it executes (jobs/shard/observer/
/// checkpoint/selection) is an ExecPolicy the drivers take beside it.
struct CampaignConfig {
  int runs_per_region = 400;  // paper: 400-500 injections per region (§4.3)
  std::uint64_t seed = 0xfau;
  std::vector<Region> regions = {
      Region::kRegularReg, Region::kFpReg, Region::kBss,   Region::kData,
      Region::kStack,      Region::kText,  Region::kHeap,  Region::kMessage,
  };
  std::size_t dictionary_entries = 4096;
  /// Pre-injection pruning level (see PruneLevel); aggregates are
  /// bit-identical at every level.
  PruneLevel prune = PruneLevel::kFull;
  /// Execution engine for every run, golden and injected (see RunContext):
  /// a pure throughput knob, excluded from the campaign's spec identity.
  svm::exec::EngineKind engine = svm::exec::EngineKind::kThreaded;
};

/// Seed of run `i` of `region` in a campaign seeded `campaign_seed`. It
/// depends on nothing else, so a grid point injects the same fault under
/// any scheduler, shard split or job count.
std::uint64_t run_seed_for(std::uint64_t campaign_seed, Region region, int i);

/// One campaign's fault space, prepared once and read by every run: the
/// linked image, its static analysis, the annotated text/data/BSS fault
/// dictionaries, the compiled instruction stream, the golden run with its
/// ladder and read oracle, and the run context. Built by prepare() or by a
/// BatchSession's constructor (the same three stages, the golden run on the
/// session pool); immutable once built and safe to share across threads.
/// Campaigns, `fsim run` and `fsim analyze` all inject into the fault space
/// it describes.
class Prepared {
 public:
  const apps::App& app() const noexcept { return app_; }
  const svm::Program& program() const noexcept { return *program_; }
  const svm::analysis::ProgramAnalysis& analysis() const noexcept {
    return *analysis_;
  }
  /// The annotated dictionary of a static region (text, data or BSS);
  /// null for every other region.
  const FaultDictionary* dictionary(Region region) const noexcept {
    return dicts_[static_cast<unsigned>(region)].get();
  }
  const Golden& golden() const noexcept { return golden_; }
  const RunContext& context() const noexcept { return ctx_; }

  /// One injected run into this fault space (see run_injected); a
  /// campaign's grid point i of `region` is run_seed_for(seed, region, i).
  /// Given a slot, the run restores into the slot's World instead of
  /// building one (see WorldSlot); the outcome is the same.
  RunOutcome run(Region region, std::uint64_t run_seed,
                 WorldSlot* slot = nullptr) const;

 private:
  friend Prepared prepare(const apps::App& app, const CampaignConfig& config);
  friend class BatchSession;
  Prepared() = default;

  // The stages of prepare(), in its order. The analysis and the golden run
  // read only the linked image and write disjoint members, so a session
  // runs them concurrently once link() has returned.
  void link(const apps::App& app);
  void analyse(const CampaignConfig& config);
  void record_golden(const CampaignConfig& config);

  apps::App app_;
  // Held by pointer so its address survives moving the Prepared: the
  // analysis bundle points into it.
  std::unique_ptr<const svm::Program> program_;
  std::array<std::unique_ptr<FaultDictionary>, kNumRegions> dicts_;
  std::shared_ptr<const svm::analysis::ProgramAnalysis> analysis_;
  Golden golden_;
  RunContext ctx_;
};

/// Prepare `app` under `config`, reading only its seed, dictionary size,
/// prune level and engine. Throws SetupError when the golden run does not
/// complete.
Prepared prepare(const apps::App& app, const CampaignConfig& config);

struct RegionResult {
  Region region{};
  int executions = 0;
  int skipped = 0;  // no viable target existed (counted as correct runs)
  std::array<int, kNumManifestations> counts{};  // indexed by Manifestation
  std::array<int, kNumCrashKinds> crash_kinds{};  // breakdown of Crash
  int pruned = 0;  // runs decided statically, never resumed
  /// Pruned runs by deciding precision-ladder rung (diagnostic; index 0 =
  /// PruneRung::kNone is always 0, and the rest sum to `pruned`). Not part
  /// of the aggregate digests: like `pruned` it differs across prune
  /// levels by construction.
  std::array<int, kNumPruneRungs> pruned_rungs{};

  /// Activation-class split (paper §6-§7): executions and manifestation
  /// counts for faults the static analysis tagged live vs dead. Runs with
  /// an unknown class (uncovered targets) appear in neither bucket.
  static constexpr unsigned kLiveIdx = 0, kDeadIdx = 1;
  std::array<int, 2> act_executions{};
  std::array<std::array<int, kNumManifestations>, 2> act_counts{};

  /// Manifested faults: every outcome other than Correct.
  int errors() const noexcept {
    int e = 0;
    for (unsigned m = 1; m < kNumManifestations; ++m) e += counts[m];
    return e;
  }
  double error_rate() const noexcept {
    return executions ? static_cast<double>(errors()) / executions : 0.0;
  }
  /// Share of a manifestation among all *manifested* errors (the paper's
  /// "Error Manifestations (Percent)" columns).
  double manifestation_share(Manifestation m) const noexcept {
    const int e = errors();
    return e ? static_cast<double>(counts[static_cast<unsigned>(m)]) / e : 0.0;
  }
};

/// Apply `f` to every integer count field of one RegionResult — or to the
/// matching fields of several, side by side — in one fixed order (the
/// fnv-bin-v1 checkpoint layout). Merge and the binary codec walk the
/// fields through here, so a new count field cannot be dropped by one of
/// them alone.
template <typename F, typename... R>
void for_each_count(F f, R&... rr) {
  f(rr.executions...);
  f(rr.skipped...);
  for (unsigned m = 0; m < kNumManifestations; ++m) f(rr.counts[m]...);
  for (unsigned k = 0; k < kNumCrashKinds; ++k) f(rr.crash_kinds[k]...);
  f(rr.pruned...);
  for (unsigned r = 0; r < kNumPruneRungs; ++r) f(rr.pruned_rungs[r]...);
  for (unsigned a = 0; a < 2; ++a) {
    f(rr.act_executions[a]...);
    for (unsigned m = 0; m < kNumManifestations; ++m) f(rr.act_counts[a][m]...);
  }
}

struct CampaignResult {
  std::string app;
  Golden golden;
  std::vector<RegionResult> regions;
  std::uint64_t seed = 0;

  const RegionResult* find(Region r) const noexcept {
    for (const auto& rr : regions)
      if (rr.region == r) return &rr;
    return nullptr;
  }
};

/// Run a full campaign for one application under `exec` — a single-entry
/// run_batch.
CampaignResult run_campaign(const apps::App& app, const CampaignConfig& config,
                            const ExecPolicy& exec = {});

/// Fold one run outcome into a region aggregate — the single-run update
/// the batch executor and the checkpoint sink both apply, so their counts
/// agree field for field.
void accumulate_outcome(RegionResult& rr, const RunOutcome& out);

/// Field-wise integer sum of a partial into an aggregate. Every aggregate
/// field is a sum of per-run contributions, so folding partials in any
/// order reproduces the serial result bit for bit.
void merge_region_counts(RegionResult& into, const RegionResult& from);

// --- Batched multi-app campaigns with deterministic sharding ---
//
// A batch drives several (app, regions, runs, seed) campaigns through one
// shared worker pool: each program is linked once, and the combined
// (campaign, region, run) grid is interleaved across workers with the same
// fixed-order partial merge as a single campaign — per-campaign aggregates
// are bit-identical to running each campaign through run_campaign serially,
// at any job count. run_campaign itself is a single-entry batch.

/// Identity of one campaign inside a batch — everything that must match
/// across hosts for their shard checkpoints to be mergeable.
struct CampaignSpec {
  std::string app;
  int runs_per_region = 0;
  std::uint64_t seed = 0;
  std::vector<Region> regions;
  std::size_t dictionary_entries = 0;
  PruneLevel prune = PruneLevel::kFull;
  /// Per-campaign app-config overrides (fsim-batch-v2 spec schema). Part
  /// of the campaign identity: different params link a different image.
  apps::AppParams params;
  /// Engine the campaign ran under — carried for reporting only. Engines
  /// are bit-identical, so it is NOT part of the identity: checkpoints
  /// from different engines merge/resume freely.
  svm::exec::EngineKind engine = svm::exec::EngineKind::kThreaded;

  bool operator==(const CampaignSpec& o) const {
    return app == o.app && runs_per_region == o.runs_per_region &&
           seed == o.seed && regions == o.regions &&
           dictionary_entries == o.dictionary_entries && prune == o.prune &&
           params == o.params;  // engine deliberately excluded
  }
};

/// Throws SetupError unless runs >= 1: the one range check that spec
/// files (parse_batch_spec) and the --runs flag (BatchSession) share.
void require_positive_runs(const std::string& app, int runs);

/// Throws SetupError, naming the region, unless `regions` is non-empty and
/// lists no region twice: the region-list check that --regions
/// (BatchSession), spec files and checkpoint specs share.
void require_distinct_regions(const std::string& app,
                              const std::vector<Region>& regions);

/// Throws SetupError, naming the app, if two campaigns share one spec
/// identity (CampaignSpec::operator==): the same campaign run twice. Two
/// campaigns of one app that differ in seed, runs or params stay legal.
/// BatchSession, spec files and checkpoint specs share it.
void require_distinct_campaigns(const std::vector<CampaignSpec>& specs);

/// The spec a (app name, config) pair induces.
CampaignSpec spec_of(const std::string& app_name, const CampaignConfig& config);

/// Stopping policy of an adaptive (CI-targeted) campaign, driven by
/// core/adaptive.hpp: each (campaign, region) cell runs in waves of `wave`
/// grid points until the Wilson half-width of its error rate reaches `ci`
/// at confidence 1-alpha, subject to the small-sample clamp `min_runs` and
/// the per-cell cap (the campaign's runs_per_region). Recorded in adaptive
/// checkpoints — resuming under an unchanged policy reproduces the
/// uninterrupted run bit for bit (see docs/STATISTICS.md).
struct AdaptivePolicy {
  double ci = 0.05;    // target half-width of the per-cell error rate
  double alpha = 0.05; // confidence level 1 - alpha
  int wave = 50;       // grid points scheduled per open cell per wave
  int min_runs = 30;   // sampling.hpp kSmallSampleMin

  bool operator==(const AdaptivePolicy&) const = default;
};

/// Throws SetupError unless ci and alpha lie in (0, 1) and wave and
/// min_runs are >= 1: the one policy check run_adaptive and checkpoint
/// parsing share.
void require_valid_policy(const AdaptivePolicy& policy);

/// One campaign in a batch: the app and what its campaign runs. The
/// batch-level ExecPolicy drives execution.
struct BatchEntry {
  apps::App app;
  CampaignConfig config;
  /// App-config overrides `app` was built with (echoed into the campaign's
  /// spec so results and checkpoints carry the full identity).
  apps::AppParams params;
};

/// Batch execution is configured entirely by the shared ExecPolicy
/// (jobs/shard/observer/checkpoint/resume/selection — see execpolicy.hpp);
/// the alias keeps the historical name at every call site.
struct BatchConfig : ExecPolicy {};

/// Build the batch entry list a spec list describes: one app linked per
/// campaign with its params applied, the spec's runs/seed/regions/
/// dictionary/prune/engine copied into the entry config. The inverse of
/// spec_of over a whole batch; the CLI and the service worker share it.
std::vector<BatchEntry> entries_for_specs(
    const std::vector<CampaignSpec>& specs);

struct BatchResult {
  std::vector<CampaignSpec> specs;        // spec order, parallel to campaigns
  std::vector<CampaignResult> campaigns;  // per-campaign (possibly partial)
  ShardSpec shard;                        // which slice these counts cover
};

/// A prepared batch: every campaign linked, analysed, compiled and
/// golden-run exactly once, ready to execute arbitrary subsets of the
/// flattened (campaign, region, run) grid. run_batch prepares a session
/// and walks the whole fixed-n grid, or runs one invocation through a
/// session its caller keeps (the service worker runs every chunk of a job
/// through one); the adaptive scheduler
/// (core/adaptive.hpp) drives data-dependent waves through the same
/// session. Both paths share run seeds, pruning, engines and the
/// serialized observer dispatch, so a run's outcome never depends on which
/// scheduler asked for it.
class BatchSession {
 public:
  /// One grid point scheduled for execution.
  struct Point {
    std::size_t campaign = 0;
    std::size_t region_index = 0;  // into the campaign's region list
    int run_index = 0;             // i within (campaign, region)
    std::uint64_t grid_index = 0;  // fixed global enumeration index
  };

  /// Serialized per-run callback (may be empty = no observation).
  using Notify = std::function<void(const RunEvent&)>;

  /// Prepares every campaign. `entries` is borrowed and must outlive the
  /// session. It creates the session's pool of `jobs` workers first and
  /// runs every campaign's golden run on it as a task, while this thread
  /// links the campaigns and then analyses them; the constructor returns
  /// once all have finished. Throws SetupError when jobs < 1 or an entry
  /// has fewer than one run per region, before anything is prepared. When
  /// preparing fails, it rethrows the error prepare() meets first in entry
  /// order (the lowest-index failing campaign's earliest stage), the same
  /// one at any job count.
  BatchSession(const std::vector<BatchEntry>& entries, int jobs);
  ~BatchSession();

  BatchSession(const BatchSession&) = delete;
  BatchSession& operator=(const BatchSession&) = delete;

  /// Flattened (campaign, region) slot count.
  std::size_t slots() const noexcept;
  /// Flattened slot index of (campaign, region-index).
  std::size_t slot_of(std::size_t campaign, std::size_t region_index) const;
  /// Global grid index of (campaign, region-index, run) in the fixed
  /// campaign-major enumeration order shared with shard_owns.
  std::uint64_t grid_index_of(std::size_t campaign, std::size_t region_index,
                              int run) const;
  /// Spec list in entry order (params included).
  const std::vector<CampaignSpec>& specs() const noexcept;
  /// Per-campaign golden runs, in entry order.
  std::vector<Golden> goldens() const;
  /// Campaign `campaign`'s preparation, as prepare() would build it.
  const Prepared& prepared(std::size_t campaign) const;

  /// Execute the given grid points. Outcomes fold into `totals[slot]`;
  /// `done[slot]` increments per completed point and `owned[slot]` is the
  /// progress denominator reported in RunEvents. `notify` receives every
  /// RunEvent under one session-wide mutex, at any job count. Each
  /// campaign's points run as walks (walks_of in run.hpp: the memory and
  /// register points of one start rung together, visited by fault time,
  /// each message point alone), and the walks fan out over the session
  /// pool campaign by campaign (one worker runs them in that order). The
  /// outcomes do not depend on the grouping, and per-worker partials merge
  /// in fixed order, so `totals` is bit-identical at any job count. Once a
  /// run or `notify` throws, no point that has not started runs, and the
  /// first error is rethrown.
  void run_points(const std::vector<Point>& points,
                  std::vector<RegionResult>& totals, std::vector<int>& done,
                  const std::vector<int>& owned, const Notify& notify);

  /// Copy of the campaign skeletons with `totals` (slot order) distributed
  /// into per-campaign region lists.
  std::vector<CampaignResult> attach_regions(
      const std::vector<RegionResult>& totals) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Run every campaign through one shared pool. The grid points run are
/// `config.selection` when given (which then must not be combined with a
/// shard or a resume), else the shard's selection minus the resume
/// baseline's done sets. Throws SetupError on an invalid shard, a
/// selection combined with either, or a checkpoint of another batch.
BatchResult run_batch(const std::vector<BatchEntry>& entries,
                      const BatchConfig& config);

/// The same, through a session already prepared over the batch's entries:
/// nothing is linked, analysed or golden-run again, so a caller running
/// many selections of one batch pays preparation once. Every check above
/// still runs; the session's pool, not `config.jobs`, sets the thread
/// count.
BatchResult run_batch(BatchSession& session, const BatchConfig& config);

/// Per-campaign paper-style tables.
std::string format_batch(const BatchResult& result);

/// Render the campaign as a paper-style table. Detection columns are shown
/// only when any detected outcome occurred (Table 2 omits them for Cactus).
std::string format_campaign(const CampaignResult& result);

/// Render the activation-class split: per region, executions and error
/// rates for statically-live vs statically-dead targets (empty string when
/// no region has activation data).
std::string format_activation(const CampaignResult& result);

/// Combined activation totals for one app across every campaign and region
/// of a batch (campaigns sharing an app name fold together).
struct AppActivation {
  std::string app;
  std::array<int, 2> executions{};  // [kLiveIdx, kDeadIdx]
  std::array<int, 2> errors{};
};

/// Per-app activation summary rows, first-seen app order; empty when no
/// campaign carries activation data.
std::vector<AppActivation> batch_activation(const BatchResult& result);

/// Render the batch-wide per-app activation table (empty string when there
/// is no activation data).
std::string format_batch_activation(const BatchResult& result);

}  // namespace fsim::core
