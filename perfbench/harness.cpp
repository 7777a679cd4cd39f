// Campaign benchmark harness: runs one fsim workload in-process through the
// public library API and prints its measurements as JSON lines on stdout.
// run.py owns the workloads, their generated inputs, the CLI and service
// processes, the correctness gates and the statistics; this binary only
// executes and times what it is told to.
//
//   perfbench_harness info
//   perfbench_harness timed  --spec=FILE --jobs=N --seconds=S
//                            [--ci=D --checkpoint=FILE]
//   perfbench_harness traced --spec=FILE --jobs=N --out=DIR
//                            [--ci=D --checkpoint=FILE]
//                            [--fleet-workers=W --worker-jobs=J]
//
// timed: repeats the workload until --seconds have passed (at least three
// repetitions), one line per repetition, then one line with the process's
// peak RSS. traced: one traced walk plus per-layer probes; writes every
// span to DIR/spans.jsonl and prints one line of per-layer metrics.
//
// Every timing is taken from outside the library, around calls into the
// public functions of apps, svm, simmpi, core, service and util; nothing
// inside src/ is instrumented.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "core/adaptive.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/dictionary.hpp"
#include "core/report.hpp"
#include "core/run.hpp"
#include "service/queue.hpp"
#include "service/scheduler.hpp"
#include "simmpi/snapshot.hpp"
#include "simmpi/world.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/exec/compiled.hpp"
#include "util/cli.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace {

using namespace fsim;
using Clock = std::chrono::steady_clock;

// Repetitions a timed run makes even when --seconds is shorter, so every
// reported figure is a median of at least three.
constexpr int kMinReps = 3;
// ci_target's checkpoint cadence (fnv-bin-v1 sidecar).
constexpr int kCheckpointEvery = 16;
// Traced runs: BatchSession constructions timed for core.prepare_ms, and
// untraced/traced pairs the tracing overhead is the median ratio of.
constexpr int kPrepareSamples = 3;
constexpr int kOverheadPairs = 3;
// Probe sample counts (traced runs only).
constexpr int kWorldSamples = 200;
constexpr int kEngineSamples = 11;
constexpr int kCkptSamples = 5;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

// FNV-1a 64 over a document's bytes; run.py computes the same over the CLI
// reference, so equal values mean byte-identical documents.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, q * static_cast<double>(v.size()) + 0.999999));
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

struct Options {
  std::vector<core::CampaignSpec> specs;
  std::string spec_text;
  int jobs = 4;
  double seconds = 10;
  std::optional<core::AdaptivePolicy> adaptive;
  std::string checkpoint;
  std::string out_dir;
  int fleet_workers = 0;
  int worker_jobs = 2;
};

core::AdaptiveConfig adaptive_config(const Options& o,
                                     core::CampaignObserver* observer) {
  core::AdaptiveConfig ac;
  ac.jobs = o.jobs;
  ac.policy = *o.adaptive;
  ac.observer = observer;
  if (!o.checkpoint.empty()) {
    ac.checkpoint_path = o.checkpoint;
    ac.checkpoint_every = kCheckpointEvery;
    ac.checkpoint_encoding = core::CheckpointEncoding::kBinary;
  }
  return ac;
}

// Every grid point a batch owns (optionally restricted to a selection), in
// the fixed enumeration order, with the per-slot owned counts.
std::vector<core::BatchSession::Point> grid_points(
    const core::BatchSession& session,
    const std::vector<core::BatchEntry>& entries,
    const core::GridSelection* selection, std::vector<int>& owned) {
  std::vector<core::BatchSession::Point> points;
  owned.assign(session.slots(), 0);
  for (std::size_t c = 0; c < entries.size(); ++c) {
    const core::CampaignConfig& cc = entries[c].config;
    for (std::size_t ri = 0; ri < cc.regions.size(); ++ri) {
      const std::size_t slot = session.slot_of(c, ri);
      for (int i = 0; i < cc.runs_per_region; ++i) {
        if (selection && !selection->slots[slot].contains(i)) continue;
        ++owned[slot];
        points.push_back({c, ri, i, session.grid_index_of(c, ri, i)});
      }
    }
  }
  return points;
}

// --- timed ---

struct Rep {
  double setup_s = 0, run_s = 0, wall_s = 0, cpu_s = 0;
  std::uint64_t runs = 0;
  std::string doc;
};

// Fixed-n repetition: BatchSession construction is the set-up, run_points
// over the whole grid the run phase, the result document the end.
Rep rep_fixed(const Options& o) {
  Rep r;
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  const std::vector<core::BatchEntry> entries =
      core::entries_for_specs(o.specs);
  core::BatchSession session(entries, o.jobs);
  r.setup_s = since(t0);
  const auto t1 = Clock::now();
  std::vector<int> owned;
  const auto points = grid_points(session, entries, nullptr, owned);
  std::vector<core::RegionResult> totals(session.slots());
  std::vector<int> done(session.slots(), 0);
  session.run_points(points, totals, done, owned, {});
  r.run_s = since(t1);
  core::BatchResult batch;
  batch.specs = session.specs();
  batch.campaigns = session.attach_regions(totals);
  r.doc = core::batch_json(batch) + "\n";
  r.wall_s = since(t0);
  r.cpu_s = cpu_seconds() - c0;
  r.runs = points.size();
  return r;
}

// Adaptive repetition. run_adaptive prepares its own session internally,
// so set-up is timed on a separate BatchSession over the same entries and
// subtracted from the adaptive wall clock to give the run phase.
Rep rep_adaptive(const Options& o) {
  Rep r;
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  const std::vector<core::BatchEntry> entries =
      core::entries_for_specs(o.specs);
  const double entries_s = since(t0);
  const double pc0 = cpu_seconds();
  double prepare_s = 0;
  {
    const auto p0 = Clock::now();
    core::BatchSession probe(entries, o.jobs);
    prepare_s = since(p0);
  }
  const double probe_cpu = cpu_seconds() - pc0;
  const auto t2 = Clock::now();
  const core::AdaptiveResult res =
      core::run_adaptive(entries, adaptive_config(o, nullptr));
  r.doc = core::adaptive_json(res) + "\n";
  const double adaptive_s = since(t2);
  r.cpu_s = cpu_seconds() - c0 - probe_cpu;
  r.setup_s = entries_s + prepare_s;
  r.wall_s = entries_s + adaptive_s;
  r.run_s = r.wall_s - r.setup_s;
  r.runs = res.total_runs;
  return r;
}

int cmd_timed(const Options& o) {
  const auto start = Clock::now();
  double last = 0;
  for (int rep = 0; rep < kMinReps || since(start) + last <= o.seconds;
       ++rep) {
    const auto r0 = Clock::now();
    const Rep r = o.adaptive ? rep_adaptive(o) : rep_fixed(o);
    last = since(r0);
    util::JsonWriter w;
    w.begin_object();
    w.key("rep").value(rep);
    w.key("setup_s").value(r.setup_s);
    w.key("run_s").value(r.run_s);
    w.key("wall_s").value(r.wall_s);
    w.key("cpu_s").value(r.cpu_s);
    w.key("runs").value(r.runs);
    w.key("doc_fnv").value(fnv1a(r.doc));
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("peak_rss_mb").value(peak_rss_mb());
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// --- traced ---

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  double start_ms = 0, end_ms = 0;
  std::string attrs;  // JSON object text, or empty
};

// In-memory span store, written out once the run ends.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }
  int next_id() { return next_.fetch_add(1, std::memory_order_relaxed); }
  void record(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  void write(const std::string& path) const {
    std::string out;
    for (const Span& s : spans_) {
      util::JsonWriter w;
      w.begin_object();
      w.key("name").value(s.name);
      w.key("id").value(s.id);
      w.key("parent").value(s.parent);
      w.key("start_ms").value(s.start_ms);
      w.key("end_ms").value(s.end_ms);
      w.end_object();
      std::string line = w.str();
      if (!s.attrs.empty()) {
        line.pop_back();
        line += ",\"attrs\":" + s.attrs + "}";
      }
      out += line + "\n";
    }
    util::write_file_atomic(path, out);
  }

 private:
  Clock::time_point origin_;
  std::atomic<int> next_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent,
             std::string attrs = {})
      : tracer_(tracer) {
    span_.name = std::move(name);
    span_.parent = parent;
    span_.attrs = std::move(attrs);
    span_.id = tracer.next_id();
    span_.start_ms = tracer.now_ms();
  }
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const noexcept { return span_.id; }
  void set_attrs(std::string attrs) { span_.attrs = std::move(attrs); }
  /// End the span now; returns its duration in ms.
  double close() {
    if (!open_) return span_.end_ms - span_.start_ms;
    open_ = false;
    span_.end_ms = tracer_.now_ms();
    const double ms = span_.end_ms - span_.start_ms;
    tracer_.record(span_);
    return ms;
  }

 private:
  Tracer& tracer_;
  Span span_;
  bool open_ = true;
};

std::string app_attr(const std::string& app) {
  util::JsonWriter w;
  w.begin_object();
  w.key("app").value(app);
  w.end_object();
  return w.str();
}

// One campaign's prepared state, built stage by stage with the same public
// calls (and the same seeds) as the library's batch preparation, so the
// traced walk injects exactly the faults run_batch would.
struct Plan {
  svm::Program program;
  std::array<std::unique_ptr<core::FaultDictionary>, core::kNumRegions> dicts;
  std::unique_ptr<svm::analysis::ProgramAnalysis> analysis;
  std::shared_ptr<const svm::exec::CompiledProgram> compiled;
  core::Golden golden;
  core::RunContext ctx;
};

// Stage timings in ms, keyed by "<stage>.<app>".
using StageTimes = std::map<std::string, std::vector<double>>;

Plan prepare_traced(const core::BatchEntry& e, Tracer& t, int parent,
                    StageTimes& times) {
  Plan p;
  const core::CampaignConfig& cc = e.config;
  const std::string attrs = app_attr(e.app.name);
  ScopedSpan all(t, "prepare", parent, attrs);
  {
    ScopedSpan s(t, "prepare.link", all.id(), attrs);
    p.program = e.app.link();
    times["link." + e.app.name].push_back(s.close());
  }
  {
    ScopedSpan s(t, "prepare.analysis", all.id(), attrs);
    p.analysis = std::make_unique<svm::analysis::ProgramAnalysis>(p.program);
    times["analysis." + e.app.name].push_back(s.close());
  }
  {
    // Dictionary sampling does not depend on the analysis, only its
    // annotation does, so the two can be timed apart in this order.
    ScopedSpan s(t, "prepare.dictionary", all.id(), attrs);
    util::Rng dict_rng(util::hash_seed({cc.seed, 0xd1c7}));
    for (core::Region r :
         {core::Region::kText, core::Region::kData, core::Region::kBss})
      p.dicts[static_cast<unsigned>(r)] =
          std::make_unique<core::FaultDictionary>(p.program, r, dict_rng,
                                                  cc.dictionary_entries);
    const svm::analysis::ProgramAnalysis& an = *p.analysis;
    p.dicts[static_cast<unsigned>(core::Region::kText)]->annotate(
        [&](svm::Addr a) { return an.text_reachable_refined(a); },
        [&](svm::Addr a) {
          return an.text_reachable(a) ? core::PruneRung::kValueRange
                                      : core::PruneRung::kBase;
        });
    for (core::Region r : {core::Region::kData, core::Region::kBss})
      p.dicts[static_cast<unsigned>(r)]->annotate(
          [&](svm::Addr a) { return !an.data_byte_dead(a); });
    times["dictionary." + e.app.name].push_back(s.close());
  }
  {
    ScopedSpan s(t, "prepare.compile", all.id(), attrs);
    p.compiled = std::make_shared<svm::exec::CompiledProgram>(
        p.program, p.analysis->cfg());
    times["compile." + e.app.name].push_back(s.close());
  }
  {
    ScopedSpan s(t, "prepare.golden", all.id(), attrs);
    p.golden =
        core::run_golden(e.app, p.program, 1, cc.engine, p.compiled);
    times["golden." + e.app.name].push_back(s.close());
  }
  p.ctx = core::RunContext{p.analysis.get(), cc.prune, cc.engine, p.compiled};
  return p;
}

struct RunRecord {
  core::RunOutcome outcome;
  double ms = 0;
};

// The traced grid walk: `jobs` threads pull points in enumeration order and
// time each run_injected call as one `run` span (request id = grid index).
std::vector<RunRecord> walk(const std::vector<core::BatchEntry>& entries,
                            const std::vector<Plan>& plans,
                            const std::vector<core::BatchSession::Point>& pts,
                            int jobs, Tracer& t, int parent) {
  std::vector<RunRecord> recs(pts.size());
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  auto worker = [&] {
    try {
      for (std::size_t k; (k = next.fetch_add(1)) < pts.size();) {
        const auto& pt = pts[k];
        const core::BatchEntry& e = entries[pt.campaign];
        const Plan& plan = plans[pt.campaign];
        const core::Region region = e.config.regions[pt.region_index];
        const std::uint64_t seed = util::hash_seed(
            {e.config.seed, static_cast<std::uint64_t>(region),
             static_cast<std::uint64_t>(pt.run_index)});
        ScopedSpan s(t, "run", parent);
        RunRecord& rec = recs[k];
        rec.outcome = core::run_injected(
            e.app, plan.program, plan.golden, region,
            plan.dicts[static_cast<unsigned>(region)].get(), seed, plan.ctx);
        const core::RunOutcome& out = rec.outcome;
        util::JsonWriter w;
        w.begin_object();
        w.key("request").value(pt.grid_index);
        w.key("app").value(e.app.name);
        w.key("region").value(core::region_token(region));
        w.key("pruned").value(out.pruned);
        w.key("injected_at").value(out.injected_at);
        w.key("instructions").value(out.instructions);
        w.key("outcome").value(core::manifestation_name(out.manifestation));
        w.end_object();
        s.set_attrs(w.str());
        rec.ms = s.close();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      next.store(pts.size());
    }
  };
  std::vector<std::thread> threads;
  for (int j = 0; j < std::max(1, jobs); ++j) threads.emplace_back(worker);
  for (auto& th : threads) th.join();
  if (error) std::rethrow_exception(error);
  return recs;
}

// Fold the walk into a BatchResult shaped exactly like run_batch's.
core::BatchResult fold(const std::vector<core::BatchEntry>& entries,
                       const std::vector<Plan>& plans,
                       const core::BatchSession& layout,
                       const std::vector<core::BatchSession::Point>& pts,
                       const std::vector<RunRecord>& recs) {
  std::vector<core::RegionResult> totals(layout.slots());
  for (std::size_t k = 0; k < pts.size(); ++k)
    core::accumulate_outcome(
        totals[layout.slot_of(pts[k].campaign, pts[k].region_index)],
        recs[k].outcome);
  core::BatchResult br;
  for (std::size_t c = 0; c < entries.size(); ++c) {
    const core::BatchEntry& e = entries[c];
    br.specs.push_back(core::spec_of(e.app.name, e.config));
    br.specs.back().params = e.params;
    core::CampaignResult cr;
    cr.app = e.app.name;
    cr.seed = e.config.seed;
    cr.golden = plans[c].golden;
    for (std::size_t ri = 0; ri < e.config.regions.size(); ++ri) {
      core::RegionResult rr = totals[layout.slot_of(c, ri)];
      rr.region = e.config.regions[ri];
      cr.regions.push_back(std::move(rr));
    }
    br.campaigns.push_back(std::move(cr));
  }
  return br;
}

// Counts checkpoint-file writes (on_checkpoint calls).
class CkptCounter : public core::CampaignObserver {
 public:
  void on_checkpoint(const std::string&, int) override { ++writes; }
  std::atomic<int> writes{0};
};

struct Metrics {
  util::JsonWriter w;
  Metrics() { w.begin_object(); }
  void add(const std::string& name, double value, const char* unit) {
    w.key(name).begin_object();
    w.key("value").value(value);
    w.key("unit").value(unit);
    w.end_object();
  }
};

struct FleetStats {
  double wall_s = 0;
  int chunks = 0;
  int ckpt_writes = 0;
  std::vector<double> next_assignment_us, task_done_ms;
  std::string result;
  core::Checkpoint master;
};

// The service layer in-process: one JobStore + Scheduler, `workers` threads
// standing in for `fsim worker` processes, each running run_batch on every
// GridSelection it is assigned.
FleetStats fleet(const Options& o, Tracer& t, int parent) {
  FleetStats st;
  ScopedSpan all(t, "fleet", parent);
  service::JobStore store(o.out_dir + "/fleet_state");
  service::Scheduler sched(store, 0, core::CheckpointEncoding::kJson);
  std::mutex mu;  // guards store and sched
  const std::string job_id = store.create("bench", o.spec_text).id;
  for (int w = 0; w < o.fleet_workers; ++w) sched.worker_joined(w);
  CkptCounter counter;
  std::exception_ptr error;
  auto worker = [&](int w) {
    try {
      for (;;) {
        std::optional<service::Assignment> a;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (error || store.find(job_id)->done) return;
          ScopedSpan s(t, "service.next_assignment", all.id());
          a = sched.next_assignment(w);
          const double ms = s.close();
          st.next_assignment_us.push_back(ms * 1e3);
          if (a) ++st.chunks;
        }
        if (!a) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        {
          ScopedSpan s(t, "service.chunk", all.id());
          const auto entries =
              core::entries_for_specs(core::parse_batch_spec(a->spec));
          core::BatchConfig bc;
          bc.jobs = o.worker_jobs;
          bc.selection = &a->selection;
          bc.checkpoint_path = a->sidecar;
          bc.checkpoint_every = kCheckpointEvery;
          bc.checkpoint_encoding = a->encoding;
          bc.observer = &counter;
          core::run_batch(entries, bc);
        }
        std::lock_guard<std::mutex> lock(mu);
        ScopedSpan s(t, "service.task_done", all.id());
        sched.task_done(w, a->job, a->task);
        st.task_done_ms.push_back(s.close());
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < o.fleet_workers; ++w) threads.emplace_back(worker, w);
  for (auto& th : threads) th.join();
  if (error) std::rethrow_exception(error);
  const service::Job& job = *store.find(job_id);
  st.result = store.result_text(job);
  st.master = job.master;
  st.ckpt_writes = counter.writes.load();
  st.wall_s = all.close() / 1e3;
  return st;
}


simmpi::WorldOptions probe_options(const core::BatchEntry& e,
                                   const Plan& plan) {
  simmpi::WorldOptions opts = e.app.world;
  opts.seed = 1;
  opts.machine.engine = svm::exec::EngineKind::kThreaded;
  opts.machine.compiled = plan.compiled;
  return opts;
}

// Construct + destroy a World from the shared image, kWorldSamples times
// (us). glibc's dynamic mmap/trim thresholds make this cost depend on heap
// layout (on a 4-vCPU Xeon VM: about 0.4 ms when freed memory is recycled,
// 2-5 ms when every construction faults in fresh pages), so each caller
// pins one regime: `cold` trims the heap before every sample; the warm
// caller disables trimming and mmap first.
std::vector<double> world_new_us(const core::BatchEntry& e, const Plan& plan,
                                 bool cold, Tracer& t, int parent) {
  const simmpi::WorldOptions opts = probe_options(e, plan);
  const std::string attrs = app_attr(e.app.name);
  ScopedSpan all(t, cold ? "probe.world_cold" : "probe.world", parent, attrs);
  { simmpi::World warmup(plan.program, opts); }
  std::vector<double> us;
  for (int i = 0; i < kWorldSamples; ++i) {
    if (cold) malloc_trim(0);
    ScopedSpan s(t, "world.new", all.id(), attrs);
    { simmpi::World w(plan.program, opts); }
    us.push_back(s.close() * 1e3);
  }
  return us;
}

// Host ns per simulated instruction over a golden-length threaded run.
double ns_per_instr(const core::BatchEntry& e, const Plan& plan, Tracer& t,
                    int parent) {
  const simmpi::WorldOptions opts = probe_options(e, plan);
  std::vector<double> ns;
  for (int i = 0; i < kEngineSamples; ++i) {
    simmpi::World w(plan.program, opts);
    ScopedSpan s(t, "world.run", parent, app_attr(e.app.name));
    w.run(4'000'000'000ull);
    const double ms = s.close();
    ns.push_back(ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(
                                1, w.global_instructions())));
  }
  return median(ns);
}

// A complete checkpoint of the walked grid, built by feeding every traced
// outcome through the library's own CheckpointSink. The sink never writes
// `path`: its cadence is larger than the grid and it is never flushed.
core::Checkpoint walk_checkpoint(
    const core::BatchResult& br,
    const std::vector<core::BatchSession::Point>& pts,
    const std::vector<RunRecord>& recs, const core::BatchSession& layout,
    const std::string& path) {
  std::vector<core::Golden> goldens;
  for (const auto& c : br.campaigns) goldens.push_back(c.golden);
  core::CheckpointSink sink(path, INT_MAX,
                            core::make_checkpoint(br.specs, goldens, {}));
  for (std::size_t k = 0; k < pts.size(); ++k) {
    core::RunEvent ev;
    ev.campaign = pts[k].campaign;
    ev.app = &br.campaigns[pts[k].campaign].app;
    ev.slot = layout.slot_of(pts[k].campaign, pts[k].region_index);
    ev.region = br.campaigns[pts[k].campaign].regions[pts[k].region_index].region;
    ev.run_index = pts[k].run_index;
    ev.grid_index = pts[k].grid_index;
    ev.outcome = &recs[k].outcome;
    sink.on_run_done(ev);
  }
  return sink.state();
}

int cmd_traced(const Options& o) {
  Tracer t;
  Metrics m;
  const auto entries = core::entries_for_specs(o.specs);

  // Whole-prepare samples (BatchSession construction); the last session
  // also provides the slot/grid layout.
  std::vector<double> prepare_ms;
  std::unique_ptr<core::BatchSession> layout;
  for (int i = 0; i < kPrepareSamples; ++i) {
    layout.reset();
    ScopedSpan s(t, "prepare.session", -1);
    layout = std::make_unique<core::BatchSession>(entries, o.jobs);
    prepare_ms.push_back(s.close());
  }
  const double prepare_med_ms = median(prepare_ms);
  m.add("core.prepare_ms", prepare_med_ms, "ms");

  // ci_target: the adaptive run comes first and fixes which grid points
  // the walk covers (each cell's executed prefix); run_batch then reruns
  // exactly that selection untraced, as the agreement reference.
  std::optional<core::GridSelection> selection;
  std::string library_doc;
  double pool_wall_s = 0;  // run-phase wall of the library's own pool
  int bin_writes = 0;
  std::optional<core::Checkpoint> real_ckpt;
  if (o.adaptive) {
    CkptCounter counter;
    const auto t0 = Clock::now();
    const core::AdaptiveResult res =
        core::run_adaptive(entries, adaptive_config(o, &counter));
    pool_wall_s = since(t0) - prepare_med_ms / 1e3;
    bin_writes = counter.writes.load();
    library_doc = core::adaptive_json(res) + "\n";
    int waves = 0;
    core::GridSelection sel;
    sel.slots.resize(layout->slots());
    for (std::size_t s = 0; s < res.cells.size(); ++s) {
      waves = std::max(waves, res.cells[s].waves);
      if (res.cells[s].scheduled > 0)
        sel.slots[s].append_range(0, res.cells[s].scheduled - 1);
    }
    m.add("core.adaptive.runs", static_cast<double>(res.total_runs), "count");
    m.add("core.adaptive.waves", waves, "count");
    selection = std::move(sel);
    real_ckpt = core::parse_checkpoint_json(util::read_file(o.checkpoint));
  } else {
    m.add("core.adaptive.runs", 0, "count");
    m.add("core.adaptive.waves", 0, "count");
  }
  // Untraced run_batch and the traced walk over the same grid points,
  // alternated kOverheadPairs times; only the last walk's spans are kept.
  // The walk prepares each campaign stage by stage, then times every run.
  ScopedSpan root(t, "workload", -1);
  core::BatchResult library;
  std::vector<double> untraced_s, traced_s;
  std::vector<Plan> plans;
  StageTimes stage;
  std::vector<int> owned;
  const std::vector<core::BatchSession::Point> pts = grid_points(
      *layout, entries, selection ? &*selection : nullptr, owned);
  std::vector<RunRecord> recs;
  for (int i = 0; i < kOverheadPairs; ++i) {
    {
      core::BatchConfig bc;
      bc.jobs = o.jobs;
      bc.selection = selection ? &*selection : nullptr;
      const auto t0 = Clock::now();
      library = core::run_batch(entries, bc);
      untraced_s.push_back(since(t0));
    }
    const bool last = i + 1 == kOverheadPairs;
    Tracer scratch;
    Tracer& tr = last ? t : scratch;
    ScopedSpan w(tr, "walk", last ? root.id() : -1);
    plans.clear();
    for (const auto& e : entries)
      plans.push_back(prepare_traced(e, tr, w.id(), stage));
    recs = walk(entries, plans, pts, o.jobs, tr, w.id());
    traced_s.push_back(w.close() / 1e3);
  }
  if (!o.adaptive) {
    library_doc = core::batch_json(library) + "\n";
    pool_wall_s = median(untraced_s) - prepare_med_ms / 1e3;
  }
  const core::BatchResult traced = fold(entries, plans, *layout, pts, recs);
  bool agree = core::batch_digest(traced) == core::batch_digest(library) &&
               core::outcome_digest(traced) == core::outcome_digest(library);
  m.add("trace.overhead_frac", median(traced_s) / median(untraced_s) - 1.0,
        "ratio");

  // Run-level counts and times from the walk.
  std::vector<double> pruned_ms, simulated_ms;
  double sum_ms = 0, pre = 0, total_instr = 0, instr_nonmsg = 0;
  std::uint64_t npruned = 0;
  for (std::size_t k = 0; k < recs.size(); ++k) {
    const core::RunOutcome& out = recs[k].outcome;
    (out.pruned ? pruned_ms : simulated_ms).push_back(recs[k].ms);
    sum_ms += recs[k].ms;
    npruned += out.pruned ? 1 : 0;
    total_instr += static_cast<double>(out.instructions);
    const core::Region region =
        entries[pts[k].campaign].config.regions[pts[k].region_index];
    if (region != core::Region::kMessage && out.fault_applied) {
      pre += static_cast<double>(out.injected_at);
      instr_nonmsg += static_cast<double>(out.instructions);
    }
  }
  const double nruns = static_cast<double>(std::max<std::size_t>(1, recs.size()));
  m.add("core.run_ms.pruned.p50", percentile(pruned_ms, 0.5), "ms");
  m.add("core.run_ms.pruned.p99", percentile(pruned_ms, 0.99), "ms");
  m.add("core.run_ms.simulated.p50", percentile(simulated_ms, 0.5), "ms");
  m.add("core.run_ms.simulated.p99", percentile(simulated_ms, 0.99), "ms");
  m.add("core.pruned_frac", static_cast<double>(npruned) / nruns, "ratio");
  m.add("core.pre_inject_frac", instr_nonmsg > 0 ? pre / instr_nonmsg : 0,
        "ratio");
  m.add("core.instr_per_run", total_instr / nruns, "count");

  // Per-app stage medians (one sample per walk) and engine/World probes.
  for (std::size_t c = 0; c < entries.size(); ++c) {
    const std::string& app = entries[c].app.name;
    auto stage_ms = [&](const std::string& k) {
      return median(stage[k + "." + app]);
    };
    m.add("apps.link_ms." + app, stage_ms("link"), "ms");
    m.add("svm.analysis_ms." + app, stage_ms("analysis"), "ms");
    m.add("svm.compile_ms." + app, stage_ms("compile"), "ms");
    m.add("core.dictionary_ms." + app, stage_ms("dictionary"), "ms");
    m.add("core.golden_ms." + app, stage_ms("golden"), "ms");
    m.add("svm.ns_per_instr." + app,
          ns_per_instr(entries[c], plans[c], t, root.id()), "ns");
    {
      simmpi::World w(plans[c].program, probe_options(entries[c], plans[c]));
      m.add("simmpi.snapshot_mb." + app,
            static_cast<double>(simmpi::Snapshot::capture(w).size_bytes()) /
                1e6,
            "MB");
    }
    m.add("simmpi.world_new_cold_us." + app + ".p50",
          median(world_new_us(entries[c], plans[c], true, t, root.id())),
          "us");
  }

  // Service layer (service_fleet only; zero elsewhere: no chunks exist).
  int json_writes = 0;
  std::optional<core::Checkpoint> fleet_master;
  int threads = o.jobs;
  if (o.fleet_workers > 0) {
    FleetStats st = fleet(o, t, root.id());
    agree = agree && fnv1a(st.result) == fnv1a(library_doc);
    json_writes = st.ckpt_writes;
    fleet_master = std::move(st.master);
    threads = o.fleet_workers * o.worker_jobs;
    pool_wall_s = st.wall_s;
    m.add("service.chunks", st.chunks, "count");
    m.add("service.next_assignment_us", median(st.next_assignment_us), "us");
    m.add("service.task_done_ms", median(st.task_done_ms), "ms");
    m.add("service.reprepare_s",
          st.chunks * prepare_med_ms / 1e3 / o.fleet_workers, "s");
  } else {
    m.add("service.chunks", 0, "count");
    m.add("service.next_assignment_us", 0, "us");
    m.add("service.task_done_ms", 0, "ms");
    m.add("service.reprepare_s", 0, "s");
  }
  m.add("util.pool.efficiency",
        pool_wall_s > 0 ? sum_ms / 1e3 / (threads * pool_wall_s) : 0,
        "ratio");

  // Checkpoint I/O in both encodings, on the workload's own final state:
  // the adaptive sidecar, the service master, or the walked grid.
  {
    const core::Checkpoint ck =
        real_ckpt      ? *real_ckpt
        : fleet_master ? *fleet_master
                       : walk_checkpoint(traced, pts, recs, *layout,
                                         o.out_dir + "/ckpt.unused");
    ScopedSpan all(t, "probe.ckpt", root.id());
    for (const auto enc : {core::CheckpointEncoding::kJson,
                           core::CheckpointEncoding::kBinary}) {
      const std::string name = core::checkpoint_encoding_name(enc);
      const std::string path = o.out_dir + "/ckpt." + name;
      std::vector<double> write_ms, parse_ms;
      std::string text;
      for (int i = 0; i < kCkptSamples; ++i) {
        ScopedSpan s(t, "ckpt.serialize", all.id());
        text = core::checkpoint_serialize(ck, enc) + "\n";
        const double ser = s.close();
        ScopedSpan wr(t, "ckpt.write", all.id());
        util::write_file_atomic(path, text);
        write_ms.push_back(ser + wr.close());
        ScopedSpan ps(t, "ckpt.parse", all.id());
        agree = agree && core::checkpoint_digest(core::parse_checkpoint_json(
                             text)) == core::checkpoint_digest(ck);
        parse_ms.push_back(ps.close());
      }
      const int writes =
          enc == core::CheckpointEncoding::kJson ? json_writes : bin_writes;
      m.add("core.ckpt.writes." + name, writes, "count");
      m.add("core.ckpt.kb." + name, static_cast<double>(text.size()) / 1024,
            "KiB");
      m.add("core.ckpt.write_ms." + name, median(write_ms), "ms");
      m.add("core.ckpt.parse_ms." + name, median(parse_ms), "ms");
    }
  }
  // Warm World construction last: it switches off heap trimming and mmap
  // for the rest of the process, so freed World memory is recycled the
  // way it is in a long campaign's steady state.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  double world_ms = 0;
  {
    std::map<std::string, double> p50_us;
    for (std::size_t c = 0; c < entries.size(); ++c) {
      const std::string& app = entries[c].app.name;
      const std::vector<double> us =
          world_new_us(entries[c], plans[c], false, t, root.id());
      p50_us[app] = percentile(us, 0.5);
      m.add("simmpi.world_new_us." + app + ".p50", p50_us[app], "us");
      m.add("simmpi.world_new_us." + app + ".p99", percentile(us, 0.99),
            "us");
    }
    for (const auto& pt : pts)
      world_ms += p50_us[entries[pt.campaign].app.name] / 1e3;
  }
  m.add("core.world_share", sum_ms > 0 ? world_ms / sum_ms : 0, "ratio");

  root.close();
  t.write(o.out_dir + "/spans.jsonl");

  m.w.end_object();
  util::JsonWriter w;
  w.begin_object();
  w.key("agree").value(agree);
  w.key("runs").value(static_cast<std::uint64_t>(pts.size()));
  w.key("traced_s").value(median(traced_s));
  w.key("untraced_s").value(median(untraced_s));
  w.key("doc_fnv").value(fnv1a(library_doc));
  w.end_object();
  std::string line = w.str();
  line.pop_back();
  line += ",\"metrics\":" + m.w.str() + "}";
  std::printf("%s\n", line.c_str());
  return 0;
}

int cmd_info() {
  util::JsonWriter w;
  w.begin_object();
  w.key("compiler").value(PERFBENCH_COMPILER);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    if (cli.positional().size() != 1) {
      std::fprintf(stderr, "usage: perfbench_harness info|timed|traced ...\n");
      return 2;
    }
    const std::string mode = cli.positional().front();
    if (mode == "info") return cmd_info();
    Options o;
    o.spec_text = util::read_file(cli.str("spec", ""));
    o.specs = core::parse_batch_spec(o.spec_text);
    o.jobs = static_cast<int>(cli.num("jobs", 4));
    o.seconds = cli.real("seconds", 10);
    if (cli.has("ci")) {
      core::AdaptivePolicy policy;
      policy.ci = cli.real("ci", policy.ci);
      o.adaptive = policy;
    }
    o.checkpoint = cli.str("checkpoint", "");
    o.out_dir = cli.str("out", ".");
    o.fleet_workers = static_cast<int>(cli.num("fleet-workers", 0));
    o.worker_jobs = static_cast<int>(cli.num("worker-jobs", 2));
    if (!cli.unused().empty()) {
      std::fprintf(stderr, "perfbench_harness: unknown option --%s\n",
                   cli.unused().front().c_str());
      return 2;
    }
    if (o.jobs < 1 || o.fleet_workers < 0 || o.worker_jobs < 1 ||
        (o.adaptive && o.checkpoint.empty())) {
      std::fprintf(stderr, "perfbench_harness: invalid options\n");
      return 2;
    }
    if (mode == "timed") return cmd_timed(o);
    if (mode == "traced") return cmd_traced(o);
    std::fprintf(stderr, "perfbench_harness: unknown mode '%s'\n",
                 mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
