#include "core/campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "core/batch_run.hpp"
#include "core/checkpoint.hpp"
#include "core/reshard.hpp"
#include "core/sampling.hpp"
#include "util/status.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/exec/compiled.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace fsim::core {

std::uint64_t run_seed_for(std::uint64_t campaign_seed, Region region,
                           int i) {
  return util::hash_seed({campaign_seed, static_cast<std::uint64_t>(region),
                          static_cast<std::uint64_t>(i)});
}

RunOutcome Prepared::run(Region region, std::uint64_t run_seed,
                         WorldSlot* slot) const {
  return run_injected(app_, *program_, golden_, region, dictionary(region),
                      run_seed, ctx_, slot);
}

void Prepared::link(const apps::App& app) {
  app_ = app;
  // Link exactly once per campaign: the assembler is deterministic and the
  // image is only ever read after this point, so the golden run, the fault
  // dictionaries and every injected run (on any worker) share it.
  program_ = std::make_unique<const svm::Program>(app.link());
}

void Prepared::analyse(const CampaignConfig& config) {
  // Dictionaries for the static regions are built once per campaign from
  // the linked image (§3.2: "several thousand addresses randomly selected").
  util::Rng dict_rng(util::hash_seed({config.seed, 0xd1c7}));
  for (Region r : {Region::kText, Region::kData, Region::kBss}) {
    dicts_[static_cast<unsigned>(r)] = std::make_unique<FaultDictionary>(
        *program_, r, dict_rng, config.dictionary_entries);
  }

  // Static analysis of the linked image, built once and shared read-only
  // by every worker: liveness tags register faults, the FP-depth bounds
  // tag FP data-slot faults, reachability tags text entries and the memory
  // liveness scan tags data/BSS entries. Dead-tagged faults are pruned for
  // the regions config.prune covers.
  analysis_ = std::make_shared<svm::analysis::ProgramAnalysis>(*program_);
  const svm::analysis::ProgramAnalysis& an = *analysis_;
  dicts_[static_cast<unsigned>(Region::kText)]->annotate(
      [&](svm::Addr a) { return an.text_reachable_refined(a); },
      [&](svm::Addr a) {
        // Ladder attribution: base reachability already proves most dead
        // text; only entries the branch-deciding refinement alone kills
        // are credited to the value-range rung.
        return an.text_reachable(a) ? PruneRung::kValueRange
                                    : PruneRung::kBase;
      });
  for (Region r : {Region::kData, Region::kBss})
    dicts_[static_cast<unsigned>(r)]->annotate(
        [&](svm::Addr a) { return !an.data_byte_dead(a); });

  // Compile stage: lower the image once in the CFG's basic-block order;
  // every injected run shares the stream read-only (each machine clones it
  // privately only if a text flip lands).
  ctx_ = RunContext{
      analysis_.get(), config.prune, config.engine,
      std::make_shared<svm::exec::CompiledProgram>(*program_, an.cfg())};
}

void Prepared::record_golden(const CampaignConfig& config) {
  // The golden run needs no analysis, so it lowers the image in address
  // order for itself: both lowerings execute alike, and only a text flip,
  // which the golden run never takes, depends on the block order.
  golden_ = run_golden(
      app_, *program_, 1, config.engine,
      std::make_shared<const svm::exec::CompiledProgram>(*program_));
}

Prepared prepare(const apps::App& app, const CampaignConfig& config) {
  Prepared p;
  p.link(app);
  p.analyse(config);
  p.record_golden(config);
  return p;
}

void accumulate_outcome(RegionResult& rr, const RunOutcome& out) {
  ++rr.executions;
  if (!out.fault_applied) ++rr.skipped;
  ++rr.counts[static_cast<unsigned>(out.manifestation)];
  if (out.manifestation == Manifestation::kCrash)
    ++rr.crash_kinds[static_cast<unsigned>(out.crash_kind)];
  if (out.pruned) {
    ++rr.pruned;
    ++rr.pruned_rungs[static_cast<unsigned>(out.prune_rung)];
  }
  if (out.activation != Activation::kUnknown) {
    const unsigned a = out.activation == Activation::kDead
                           ? RegionResult::kDeadIdx
                           : RegionResult::kLiveIdx;
    ++rr.act_executions[a];
    ++rr.act_counts[a][static_cast<unsigned>(out.manifestation)];
  }
}

void merge_region_counts(RegionResult& into, const RegionResult& from) {
  for_each_count([](int& a, int b) { a += b; }, into, from);
}

void require_positive_runs(const std::string& app, int runs) {
  if (runs < 1)
    throw util::SetupError("runs per region (--runs, or a spec's \"runs\") "
                           "must be >= 1 for app '" + app + "', got " +
                           std::to_string(runs));
}

void require_distinct_regions(const std::string& app,
                              const std::vector<Region>& regions) {
  if (regions.empty())
    throw util::SetupError("empty region list (--regions, or a spec's "
                           "\"regions\") for app '" + app + "'");
  for (auto r = regions.begin(); r != regions.end(); ++r)
    if (std::find(regions.begin(), r, *r) != r)
      throw util::SetupError("region '" + std::string(region_token(*r)) +
                             "' listed twice for app '" + app + "'");
}

void require_distinct_campaigns(const std::vector<CampaignSpec>& specs) {
  for (auto s = specs.begin(); s != specs.end(); ++s)
    if (std::find(specs.begin(), s, *s) != s)
      throw util::SetupError("campaign for app '" + s->app +
                             "' listed twice with the same spec");
}

void require_valid_policy(const AdaptivePolicy& p) {
  // Written as !(inside) so that NaN is refused too.
  if (!(p.ci > 0.0 && p.ci < 1.0))
    throw util::SetupError("adaptive: --ci must be in (0, 1)");
  if (!(p.alpha > 0.0 && p.alpha < 1.0))
    throw util::SetupError("adaptive: confidence alpha must be in (0, 1)");
  if (p.wave < 1)
    throw util::SetupError("adaptive: --wave must be >= 1");
  if (p.min_runs < 1)
    throw util::SetupError("adaptive: min_runs must be >= 1");
}

CampaignSpec spec_of(const std::string& app_name,
                     const CampaignConfig& config) {
  CampaignSpec spec;
  spec.app = app_name;
  spec.runs_per_region = config.runs_per_region;
  spec.seed = config.seed;
  spec.regions = config.regions;
  spec.dictionary_entries = config.dictionary_entries;
  spec.prune = config.prune;
  spec.engine = config.engine;
  return spec;
}

std::vector<BatchEntry> entries_for_specs(
    const std::vector<CampaignSpec>& specs) {
  std::vector<BatchEntry> entries;
  entries.reserve(specs.size());
  for (const auto& spec : specs) {
    BatchEntry e;
    e.app = apps::make_app(spec.app, spec.params);
    e.params = spec.params;
    e.config.runs_per_region = spec.runs_per_region;
    e.config.seed = spec.seed;
    e.config.regions = spec.regions;
    e.config.dictionary_entries = spec.dictionary_entries;
    e.config.prune = spec.prune;
    e.config.engine = spec.engine;
    entries.push_back(std::move(e));
  }
  return entries;
}

// --- BatchSession ---

struct BatchSession::Impl {
  const std::vector<BatchEntry>& entries;
  std::vector<Prepared> plans;
  std::vector<CampaignSpec> specs;
  std::vector<std::size_t> slot_base;     // ncamp + 1 cumulative regions
  std::vector<std::uint64_t> grid_base;   // ncamp + 1 cumulative grid sizes
  util::ThreadPool pool;
  /// Each worker's World, restored into by every run it executes and
  /// rebuilt when the worker moves to another campaign.
  std::vector<WorldSlot> worlds;
  std::mutex observer_mu;

  Impl(const std::vector<BatchEntry>& e, int jobs)
      : entries(e),
        pool(static_cast<std::size_t>(jobs)),
        worlds(static_cast<std::size_t>(jobs)) {}
};

BatchSession::BatchSession(const std::vector<BatchEntry>& entries, int jobs) {
  if (jobs < 1)
    throw util::SetupError("worker count (--jobs) must be >= 1, got " +
                           std::to_string(jobs));
  impl_ = std::make_unique<Impl>(entries, jobs);
  Impl& im = *impl_;
  for (const BatchEntry& e : entries) {
    require_positive_runs(e.app.name, e.config.runs_per_region);
    require_distinct_regions(e.app.name, e.config.regions);
    im.specs.push_back(spec_of(e.app.name, e.config));
    im.specs.back().params = e.params;
  }
  require_distinct_campaigns(im.specs);
  const std::size_t ncamp = entries.size();
  im.slot_base.assign(ncamp + 1, 0);
  im.grid_base.assign(ncamp + 1, 0);
  for (std::size_t c = 0; c < ncamp; ++c) {
    const CampaignConfig& cc = entries[c].config;
    im.slot_base[c + 1] = im.slot_base[c] + cc.regions.size();
    im.grid_base[c + 1] =
        im.grid_base[c] + static_cast<std::uint64_t>(cc.regions.size()) *
                              static_cast<std::uint64_t>(cc.runs_per_region);
  }

  // The golden runs, the longest stage, are pool tasks. This thread links
  // each campaign, hands its golden run to the pool, then runs the
  // analyses beside them. So links and analyses allocate from this
  // thread's heap, which the next session reuses as a serial prepare's
  // would; a golden run's bulk memory is mapped (svm/pages.hpp) and stays
  // in no pool thread's heap. A failure is kept by campaign and stage, and
  // the first one prepare() would meet — the lowest-index campaign's
  // earliest stage — is rethrown, so the error never depends on which
  // task failed first in time.
  enum Stage : std::size_t { kLink, kAnalyse, kGolden, kStages };
  std::vector<Prepared>& plans = im.plans;
  for (std::size_t c = 0; c < ncamp; ++c) plans.push_back(Prepared());
  std::vector<std::array<std::exception_ptr, kStages>> failed(ncamp);
  auto run = [&](std::size_t c, Stage stage) {
    const CampaignConfig& config = entries[c].config;
    try {
      switch (stage) {
        case kLink: plans[c].link(entries[c].app); break;
        case kAnalyse: plans[c].analyse(config); break;
        case kGolden: plans[c].record_golden(config); break;
        case kStages: break;
      }
    } catch (...) {
      failed[c][stage] = std::current_exception();
    }
  };
  for (std::size_t c = 0; c < ncamp; ++c) {
    run(c, kLink);
    if (!failed[c][kLink]) im.pool.submit([&run, c] { run(c, kGolden); });
  }
  for (std::size_t c = 0; c < ncamp; ++c)
    if (!failed[c][kLink]) run(c, kAnalyse);
  im.pool.wait();
  for (const auto& stages : failed)
    for (const std::exception_ptr& e : stages)
      if (e) std::rethrow_exception(e);
}

BatchSession::~BatchSession() = default;

std::size_t BatchSession::slots() const noexcept {
  return impl_->slot_base.back();
}

std::size_t BatchSession::slot_of(std::size_t campaign,
                                  std::size_t region_index) const {
  return impl_->slot_base[campaign] + region_index;
}

std::uint64_t BatchSession::grid_index_of(std::size_t campaign,
                                          std::size_t region_index,
                                          int run) const {
  const CampaignConfig& cc = impl_->entries[campaign].config;
  return impl_->grid_base[campaign] +
         static_cast<std::uint64_t>(region_index) *
             static_cast<std::uint64_t>(cc.runs_per_region) +
         static_cast<std::uint64_t>(run);
}

const std::vector<CampaignSpec>& BatchSession::specs() const noexcept {
  return impl_->specs;
}

std::vector<Golden> BatchSession::goldens() const {
  std::vector<Golden> out;
  for (const Prepared& p : impl_->plans) out.push_back(p.golden());
  return out;
}

const Prepared& BatchSession::prepared(std::size_t campaign) const {
  return impl_->plans[campaign];
}

void BatchSession::run_points(const std::vector<Point>& points,
                              std::vector<RegionResult>& totals,
                              std::vector<int>& done,
                              const std::vector<int>& owned,
                              const Notify& notify) {
  Impl& im = *impl_;
  const bool observing = static_cast<bool>(notify);
  auto notify_locked = [&](const Point& pt, const std::string& app,
                           Region region, std::size_t slot,
                           const RunOutcome& out, int d) {
    RunEvent ev;
    ev.campaign = pt.campaign;
    ev.app = &app;
    ev.region = region;
    ev.slot = slot;
    ev.run_index = pt.run_index;
    ev.grid_index = pt.grid_index;
    ev.outcome = &out;
    ev.done = d;
    ev.total = owned[slot];
    std::lock_guard<std::mutex> lock(im.observer_mu);
    notify(ev);
  };

  // Each campaign's points run as walks over its golden run (walks_of,
  // run_walk): the memory and register points that start from one ladder
  // rung form one pool task, whose walk visits them by fault time (ties in
  // grid order), and each message point is a task of its own. Tasks go to
  // the pool campaign by campaign, each campaign's in the order their
  // first points come. Workers accumulate lock-free into their own
  // partials; partials merge worker 0..W-1 per slot afterwards, so the
  // aggregates do not depend on the job count. Once a task has thrown, the
  // points not yet started are skipped, so a failing run or observer stops
  // the walk at any job count.
  struct Task {
    std::size_t campaign = 0;
    std::vector<Point> points;
    std::vector<WalkPoint> walk;
  };
  std::vector<Task> tasks;
  for (std::size_t c = 0; c < im.entries.size(); ++c) {
    const CampaignConfig& cc = im.entries[c].config;
    const Prepared& plan = im.plans[c];
    std::vector<Point> mine;
    for (const Point& pt : points)
      if (pt.campaign == c) mine.push_back(pt);
    std::stable_sort(mine.begin(), mine.end(),
                     [](const Point& a, const Point& b) {
                       return a.grid_index < b.grid_index;
                     });
    std::vector<WalkPoint> walk;
    for (const Point& pt : mine) {
      const Region region = cc.regions[pt.region_index];
      walk.push_back(WalkPoint{region, plan.dictionary(region),
                               run_seed_for(cc.seed, region, pt.run_index)});
    }
    for (const std::vector<std::size_t>& indices :
         walks_of(plan.golden(), walk)) {
      Task& task = tasks.emplace_back();
      task.campaign = c;
      for (const std::size_t i : indices) {
        task.points.push_back(mine[i]);
        task.walk.push_back(walk[i]);
      }
    }
  }

  util::ThreadPool& pool = im.pool;
  const std::size_t nslots = slots();
  std::vector<std::vector<RegionResult>> partials(
      pool.workers(), std::vector<RegionResult>(nslots));
  std::vector<std::atomic<int>> adone(nslots);
  for (std::size_t s = 0; s < nslots; ++s)
    adone[s].store(done[s], std::memory_order_relaxed);
  std::atomic<bool> failed{false};

  for (const Task& task : tasks) {
    pool.submit([&, t = &task] {
      if (failed.load(std::memory_order_acquire)) return;
      try {
        const auto w =
            static_cast<std::size_t>(util::ThreadPool::current_worker());
        const BatchEntry& e = im.entries[t->campaign];
        const Prepared& plan = im.plans[t->campaign];
        run_walk(plan.app(), plan.program(), plan.golden(), t->walk,
                 plan.context(), &im.worlds[w],
                 [&](std::size_t i, const RunOutcome& out) {
                   const Point& pt = t->points[i];
                   const std::size_t slot =
                       im.slot_base[pt.campaign] + pt.region_index;
                   accumulate_outcome(partials[w][slot], out);
                   if (observing)
                     notify_locked(pt, e.app.name, t->walk[i].region, slot,
                                   out,
                                   1 + adone[slot].fetch_add(
                                           1, std::memory_order_relaxed));
                   return !failed.load(std::memory_order_acquire);
                 });
      } catch (...) {
        failed.store(true, std::memory_order_release);
        throw;
      }
    });
  }
  pool.wait();

  for (std::size_t slot = 0; slot < nslots; ++slot)
    for (std::size_t w = 0; w < pool.workers(); ++w)
      merge_region_counts(totals[slot], partials[w][slot]);
  for (std::size_t s = 0; s < nslots; ++s)
    done[s] = adone[s].load(std::memory_order_relaxed);
}

std::vector<CampaignResult> BatchSession::attach_regions(
    const std::vector<RegionResult>& totals) const {
  std::vector<CampaignResult> out;
  for (std::size_t c = 0; c < impl_->entries.size(); ++c) {
    const CampaignConfig& cc = impl_->entries[c].config;
    out.push_back(CampaignResult{impl_->entries[c].app.name,
                                 impl_->plans[c].golden(), {}, cc.seed});
    const auto& regions = cc.regions;
    for (std::size_t ri = 0; ri < regions.size(); ++ri) {
      RegionResult rr = totals[impl_->slot_base[c] + ri];
      rr.region = regions[ri];
      out[c].regions.push_back(std::move(rr));
    }
  }
  return out;
}

// --- BatchRun ---

void BatchRun::validate(const ExecPolicy& exec,
                        const std::optional<AdaptivePolicy>& adaptive) {
  require_valid_shard(exec.shard);
  if (adaptive) require_valid_policy(*adaptive);
  if (exec.selection && (adaptive || exec.resume || exec.shard.count > 1))
    throw util::SetupError(
        "selection: an explicit grid selection runs alone (no shard, no "
        "resume, no adaptive waves)");
}

BatchRun::BatchRun(BatchSession& session, const ExecPolicy& exec,
                   const std::optional<AdaptivePolicy>& adaptive)
    : exec_(exec), adaptive_(adaptive.has_value()), session_(session) {
  validate(exec, adaptive);
  const std::size_t nslots = session_.slots();
  const Checkpoint* resume = exec.resume;
  if (resume)
    require_same_batch("resume", *resume, adaptive_, exec.shard,
                       session_.specs(), session_.goldens());

  // The resume baseline's counts seed the totals up front, because the
  // adaptive stopping rule must see cumulative per-cell counts; integer
  // sums commute, so the totals still equal an uninterrupted run's.
  // Progress counters continue from the baseline too, so RunEvent
  // denominators and on_region_done see the cumulative shard state.
  totals_.resize(nslots);
  done_.assign(nslots, 0);
  if (resume)
    for (std::size_t s = 0; s < nslots; ++s) {
      totals_[s] = resume->slots[s].counts;
      done_[s] = totals_[s].executions;
    }
  owned_ = done_;

  Checkpoint baseline =
      resume ? *resume
             : make_checkpoint(session_.specs(), session_.goldens(),
                               exec.shard);
  baseline.adaptive = adaptive;  // an override replaces the recorded policy
  const GridSelection owed =
      exec.selection ? *exec.selection : remaining_selection(baseline);

  // Checkpoint sink: an internal observer fed through the same serialized
  // dispatch as the caller's hooks. Seeded from the baseline so the
  // sidecar file always covers the union of old and new grid points.
  if (!exec.checkpoint_path.empty())
    sink_ = std::make_unique<CheckpointSink>(
        exec.checkpoint_path, exec.checkpoint_every, std::move(baseline),
        exec.observer, exec.checkpoint_encoding);

  // Observer fan-in: caller observer, then checkpoint sink — the session
  // serializes the whole callback under one mutex, at any job count. A
  // fixed-n slot is done when its owned points drain; an adaptive cell
  // only when its interval says so (run_adaptive fires that at stop time).
  if (exec.observer || sink_)
    notify_ = [this](const RunEvent& ev) {
      if (exec_.observer) {
        exec_.observer->on_run_done(ev);
        if (!adaptive_ && ev.done == ev.total)
          exec_.observer->on_region_done(ev.campaign, *ev.app, ev.region,
                                         ev.done);
      }
      if (sink_) sink_->on_run_done(ev);
    };
  run(owed);
}

BatchRun::~BatchRun() = default;

void BatchRun::run(const GridSelection& selection) {
  const std::size_t nslots = session_.slots();
  if (selection.slots.size() != nslots)
    throw util::SetupError(
        "selection: slot layout does not match the batch (" +
        std::to_string(selection.slots.size()) + " slots vs " +
        std::to_string(nslots) + ")");
  std::vector<BatchSession::Point> points;
  const std::vector<CampaignSpec>& specs = session_.specs();
  for (std::size_t c = 0; c < specs.size(); ++c) {
    for (std::size_t ri = 0; ri < specs[c].regions.size(); ++ri) {
      const std::size_t slot = session_.slot_of(c, ri);
      const RunSet& runs = selection.slots[slot];
      if (!runs.empty() &&
          runs.ranges().back().second >= specs[c].runs_per_region)
        throw util::SetupError("selection: run index outside the grid");
      owned_[slot] += runs.size();
      for (const auto& [first, last] : runs.ranges())
        for (int i = first; i <= last; ++i)
          points.push_back(BatchSession::Point{
              c, ri, i, session_.grid_index_of(c, ri, i)});
    }
  }
  session_.run_points(points, totals_, done_, owned_, notify_);
}

void BatchRun::commit_cell(std::size_t slot, int frontier, bool stopped) {
  if (sink_) sink_->update_cell(slot, frontier, stopped);
}

BatchResult BatchRun::finish() {
  // Leave a final checkpoint behind: it equals the shard's default output
  // (batch_to_checkpoint), it parses as complete and resuming it is a
  // no-op.
  if (sink_) sink_->flush();
  BatchResult result;
  result.shard = exec_.shard;
  result.specs = session_.specs();
  result.campaigns = session_.attach_regions(totals_);
  return result;
}

BatchResult run_batch(BatchSession& session, const BatchConfig& config) {
  return BatchRun(session, config, std::nullopt).finish();
}

BatchResult run_batch(const std::vector<BatchEntry>& entries,
                      const BatchConfig& config) {
  BatchRun::validate(config, std::nullopt);
  BatchSession session(entries, config.jobs);
  return run_batch(session, config);
}

CampaignResult run_campaign(const apps::App& app, const CampaignConfig& config,
                            const ExecPolicy& exec) {
  BatchConfig bc;
  bc.exec() = exec;
  std::vector<BatchEntry> entries;
  entries.push_back(BatchEntry{app, config, apps::AppParams{}});
  BatchResult batch = run_batch(entries, bc);
  return std::move(batch.campaigns.front());
}

std::string format_campaign(const CampaignResult& result) {
  bool any_app = false, any_mpi = false;
  for (const auto& rr : result.regions) {
    if (rr.counts[static_cast<unsigned>(Manifestation::kAppDetected)] > 0)
      any_app = true;
    if (rr.counts[static_cast<unsigned>(Manifestation::kMpiDetected)] > 0)
      any_mpi = true;
  }

  util::Table t("Fault Injection Results (" + result.app + ")");
  std::vector<std::string> head = {"Region",    "Executions", "Errors (%)",
                                   "±95% (pts)", "Crash",     "Hang",
                                   "Incorrect"};
  if (any_app) head.push_back("App Detected");
  if (any_mpi) head.push_back("MPI Detected");
  t.header(std::move(head));

  auto share = [](const RegionResult& rr, Manifestation m) {
    const int e = rr.errors();
    if (e == 0) return std::string("-");
    const int c = rr.counts[static_cast<unsigned>(m)];
    if (c == 0) return std::string("-");
    return util::fmt_fixed(100.0 * rr.manifestation_share(m), 0);
  };

  for (const auto& rr : result.regions) {
    std::vector<std::string> cells = {
        region_name(rr.region),
        std::to_string(rr.executions),
        util::fmt_fixed(100.0 * rr.error_rate(), 1),
        rr.executions > 0
            ? util::fmt_fixed(
                  100.0 * wilson_half_width(
                              0.05, static_cast<std::uint64_t>(rr.errors()),
                              static_cast<std::uint64_t>(rr.executions)),
                  1)
            : std::string("-"),
        share(rr, Manifestation::kCrash),
        share(rr, Manifestation::kHang),
        share(rr, Manifestation::kIncorrect),
    };
    if (any_app) cells.push_back(share(rr, Manifestation::kAppDetected));
    if (any_mpi) cells.push_back(share(rr, Manifestation::kMpiDetected));
    t.row(std::move(cells));
  }
  std::string out = t.ascii();

  // Footnote: how the crashes break down by signal (the paper identifies
  // crashes from MPICH's critical-signal messages on STDERR).
  std::array<int, kNumCrashKinds> totals{};
  int crashes = 0;
  for (const auto& rr : result.regions) {
    for (unsigned k = 0; k < kNumCrashKinds; ++k) totals[k] += rr.crash_kinds[k];
    crashes += rr.counts[static_cast<unsigned>(Manifestation::kCrash)];
  }
  if (crashes > 0) {
    out += "Crash breakdown:";
    for (unsigned k = 1; k < kNumCrashKinds; ++k) {
      if (totals[k] == 0) continue;
      // Separate appends: GCC 12's -Wrestrict misfires on chained
      // temporary-string operator+ at -O2.
      out += " ";
      out += crash_kind_name(static_cast<CrashKind>(k));
      out += " ";
      out += util::fmt_pct(totals[k], crashes);
      out += "%";
    }
    out += "\n";
  }

  // Footnote: how many injections were decided statically, per region.
  int pruned = 0, prunable_execs = 0;
  std::string breakdown;
  for (const auto& rr : result.regions) {
    pruned += rr.pruned;
    if (rr.pruned > 0) {
      if (!breakdown.empty()) breakdown += ", ";
      breakdown += region_name(rr.region);
      breakdown += " ";
      breakdown += std::to_string(rr.pruned);
      prunable_execs += rr.executions;
    }
  }
  if (pruned > 0) {
    out += "Pruned (statically dead targets): ";
    out += std::to_string(pruned);
    out += " of ";
    out += std::to_string(prunable_execs);
    out += " injections classified Correct without resuming (";
    out += breakdown;
    out += ")\n";
  }
  return out;
}

std::string format_activation(const CampaignResult& result) {
  bool any = false;
  for (const auto& rr : result.regions)
    if (rr.act_executions[0] + rr.act_executions[1] > 0) any = true;
  if (!any) return std::string();

  util::Table t("Static Activation Split (" + result.app + ")");
  t.header({"Region", "Live Execs", "Live Errors (%)", "Dead Execs",
            "Dead Errors (%)", "Dead Share (%)"});
  for (const auto& rr : result.regions) {
    const int live = rr.act_executions[RegionResult::kLiveIdx];
    const int dead = rr.act_executions[RegionResult::kDeadIdx];
    if (live + dead == 0) continue;
    auto errors_of = [&](unsigned a) {
      int e = 0;
      for (unsigned m = 1; m < kNumManifestations; ++m)
        e += rr.act_counts[a][m];
      return e;
    };
    const int live_err = errors_of(RegionResult::kLiveIdx);
    const int dead_err = errors_of(RegionResult::kDeadIdx);
    t.row({
        region_name(rr.region),
        std::to_string(live),
        live ? util::fmt_pct(live_err, live) : "-",
        std::to_string(dead),
        dead ? util::fmt_pct(dead_err, dead) : "-",
        util::fmt_pct(dead, live + dead),
    });
  }
  return t.ascii();
}

std::vector<AppActivation> batch_activation(const BatchResult& result) {
  std::vector<AppActivation> rows;
  bool any = false;
  for (const auto& campaign : result.campaigns) {
    AppActivation* row = nullptr;
    for (auto& r : rows)
      if (r.app == campaign.app) row = &r;
    if (!row) {
      rows.push_back(AppActivation{campaign.app, {}, {}});
      row = &rows.back();
    }
    for (const auto& rr : campaign.regions) {
      for (unsigned a = 0; a < 2; ++a) {
        row->executions[a] += rr.act_executions[a];
        for (unsigned m = 1; m < kNumManifestations; ++m)
          row->errors[a] += rr.act_counts[a][m];
        if (rr.act_executions[a] > 0) any = true;
      }
    }
  }
  if (!any) rows.clear();
  return rows;
}

std::string format_batch_activation(const BatchResult& result) {
  const std::vector<AppActivation> rows = batch_activation(result);
  if (rows.empty()) return std::string();

  util::Table t("Batch Activation Summary (all regions)");
  t.header({"App", "Live Execs", "Live Errors (%)", "Dead Execs",
            "Dead Errors (%)", "Dead Share (%)"});
  for (const auto& r : rows) {
    const int live = r.executions[RegionResult::kLiveIdx];
    const int dead = r.executions[RegionResult::kDeadIdx];
    t.row({
        r.app,
        std::to_string(live),
        live ? util::fmt_pct(r.errors[RegionResult::kLiveIdx], live) : "-",
        std::to_string(dead),
        dead ? util::fmt_pct(r.errors[RegionResult::kDeadIdx], dead) : "-",
        live + dead ? util::fmt_pct(dead, live + dead) : "-",
    });
  }
  return t.ascii();
}

std::string format_batch(const BatchResult& result) {
  std::string out;
  for (std::size_t c = 0; c < result.campaigns.size(); ++c) {
    if (c) out += "\n";
    out += format_campaign(result.campaigns[c]);
  }
  return out;
}

}  // namespace fsim::core
