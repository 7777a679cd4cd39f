#include "core/run.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/injector.hpp"
#include "svm/trap.hpp"
#include "simmpi/world.hpp"
#include "util/status.hpp"

namespace fsim::core {

namespace {

CrashKind classify_trap(svm::Trap t) {
  switch (t) {
    case svm::Trap::kBadAddress:
    case svm::Trap::kWriteProtected:
    case svm::Trap::kStackOverflow:
      return CrashKind::kSigsegv;
    case svm::Trap::kIllegalInstruction:
      return CrashKind::kSigill;
    case svm::Trap::kIntDivideByZero:
      return CrashKind::kSigfpe;
    case svm::Trap::kMisaligned:
      return CrashKind::kSigbus;
    default:
      return CrashKind::kOther;
  }
}

// Every injected run uses this world seed, so differences in the baseline
// stream are attributable to the fault alone — and a golden run with it
// passes through exactly the states an injected run does before its fault.
constexpr std::uint64_t kRunWorldSeed = 1;

// Fast-forward ladder shape (see run_golden in run.hpp).
constexpr std::size_t kMaxRungs = 32;
constexpr std::uint64_t kFirstStride = 1u << 15;

// A World as every injected run starts it.
std::unique_ptr<simmpi::World> run_world(const apps::App& app,
                                         const svm::Program& program,
                                         const RunContext& ctx) {
  simmpi::WorldOptions opts = app.world;
  opts.seed = kRunWorldSeed;
  opts.machine.engine = ctx.engine;
  opts.machine.compiled = ctx.compiled;
  return std::make_unique<simmpi::World>(program, opts);
}

const std::string& baseline_stream(const apps::App& app,
                                   const simmpi::World& world,
                                   std::string& storage) {
  if (app.baseline == apps::BaselineStream::kConsole) {
    storage = world.console();
    return storage;
  }
  return world.output();
}

}  // namespace

const char* prune_level_name(PruneLevel level) noexcept {
  switch (level) {
    case PruneLevel::kOff:
      return "off";
    case PruneLevel::kFull:
      return "full";
  }
  return "off";
}

std::optional<PruneLevel> parse_prune_level(std::string_view text) noexcept {
  for (const auto level : {PruneLevel::kOff, PruneLevel::kFull})
    if (text == prune_level_name(level)) return level;
  return std::nullopt;
}

Golden run_golden(const apps::App& app, const svm::Program& program,
                  std::uint64_t seed, svm::exec::EngineKind engine,
                  std::shared_ptr<const svm::exec::CompiledProgram> compiled) {
  simmpi::WorldOptions opts = app.world;
  opts.seed = seed;
  opts.machine.engine = engine;
  opts.machine.compiled = std::move(compiled);
  simmpi::World world(program, opts);
  auto ladder = std::make_shared<std::vector<simmpi::Snapshot>>();
  // Injected runs replay this world exactly until their fault, so its reads
  // are theirs: record them with the ladder.
  const bool record = seed == kRunWorldSeed;
  std::vector<svm::ReadLog> logs;
  if (record) {
    logs.reserve(static_cast<std::size_t>(world.size()));
    for (int r = 0; r < world.size(); ++r) {
      logs.emplace_back(world.machine(r).memory());
      world.machine(r).memory().set_read_log(&logs.back());
    }
  }
  std::uint64_t stride = kFirstStride;
  while (world.status() == simmpi::JobStatus::kRunning &&
         world.global_instructions() < 4'000'000'000ull) {
    world.advance();
    const bool rung_due =
        record && world.status() == simmpi::JobStatus::kRunning &&
        world.global_instructions() >= (ladder->size() + 1) * stride;
    if (!rung_due) continue;
    ladder->push_back(simmpi::Snapshot::capture(world));
    if (ladder->size() == kMaxRungs) {
      // Keep the rungs at multiples of the doubled stride.
      std::vector<simmpi::Snapshot> kept;
      for (std::size_t i = 1; i < ladder->size(); i += 2)
        kept.push_back(std::move((*ladder)[i]));
      *ladder = std::move(kept);
      stride *= 2;
    }
  }
  const simmpi::JobStatus status = world.status();
  if (status != simmpi::JobStatus::kCompleted)
    throw util::SetupError("golden run of '" + app.name +
                           "' did not complete (status " +
                           std::to_string(static_cast<int>(status)) + "):\n" +
                           world.console());
  Golden g;
  g.instructions = world.global_instructions();
  std::string storage;
  g.baseline = baseline_stream(app, world, storage);
  for (int r = 0; r < world.size(); ++r)
    g.rx_bytes.push_back(world.process(r).channel().received_bytes());
  g.hang_budget = static_cast<std::uint64_t>(
                      static_cast<double>(g.instructions) *
                      app.hang_budget_factor) +
                  200'000;
  if (!ladder->empty()) g.ladder = std::move(ladder);
  if (record) {
    bool fits = true;  // stamps are 32-bit
    for (int r = 0; r < world.size(); ++r) {
      world.machine(r).memory().set_read_log(nullptr);
      fits = fits && world.machine(r).instructions() <=
                         std::numeric_limits<std::uint32_t>::max();
    }
    if (fits)
      g.oracle =
          std::make_shared<const std::vector<svm::ReadLog>>(std::move(logs));
  }
  return g;
}

WorldSlot::WorldSlot() = default;
WorldSlot::~WorldSlot() = default;
WorldSlot::WorldSlot(WorldSlot&&) noexcept = default;
WorldSlot& WorldSlot::operator=(WorldSlot&&) noexcept = default;

simmpi::World& WorldSlot::bind(const apps::App& app,
                               const svm::Program& program,
                               const RunContext& ctx, bool& built) {
  built = !(world_ && program_ == &program &&
            compiled_ == ctx.compiled.get() && engine_ == ctx.engine);
  if (!built) return *world_;  // wherever the last walk left it
  world_.reset();  // release the old address spaces before mapping new ones
  world_ = run_world(app, program, ctx);
  fresh_ = simmpi::Snapshot::capture(*world_);
  program_ = &program;
  compiled_ = ctx.compiled.get();
  engine_ = ctx.engine;
  return *world_;
}

FaultStart fault_start(const Golden& golden, util::Rng& rng) {
  FaultStart start;
  start.t_inject = golden.instructions ? rng.below(golden.instructions) : 0;
  if (golden.ladder) {
    const std::vector<simmpi::Snapshot>& ladder = *golden.ladder;
    start.rungs_below = static_cast<std::size_t>(
        std::partition_point(ladder.begin(), ladder.end(),
                             [&](const simmpi::Snapshot& rung) {
                               return rung.instructions() < start.t_inject;
                             }) -
        ladder.begin());
  }
  return start;
}

namespace {

/// One walk's World and where it stands (see run_walk in run.hpp).
class Walk {
 public:
  /// `fresh` is the World as constructed (null: the World is new and no
  /// point needs it back); `boundary` holds the golden boundary across an
  /// undecided point (null: the walk has one point).
  Walk(const apps::App& app, const Golden& golden, const RunContext& ctx,
       simmpi::World& world, const simmpi::Snapshot* fresh,
       simmpi::Snapshot* boundary, bool on_golden)
      : app_(app),
        golden_(golden),
        ctx_(ctx),
        world_(world),
        fresh_(fresh),
        boundary_(boundary),
        on_golden_(on_golden) {}

  /// Run `point`, whose RNG `rng` has just drawn `start`. With `last` no
  /// later point needs the World back.
  RunOutcome run(const WalkPoint& point, util::Rng& rng,
                 const FaultStart& start, bool last);

 private:
  /// Before the point first changes the World: keep the golden boundary
  /// for the points after it, if any follow.
  void leave();
  /// Put the World at `rung` (null: at t = 0).
  void restore(const simmpi::Snapshot* rung);
  /// Fill in how the point's run ended, from the World it ended in.
  void classify(Region region, bool rejoined, RunOutcome& outcome);

  const apps::App& app_;
  const Golden& golden_;
  const RunContext& ctx_;
  simmpi::World& world_;
  const simmpi::Snapshot* fresh_;
  simmpi::Snapshot* boundary_;
  /// The World is the golden run's, unpoked, at a round boundary.
  bool on_golden_;
  bool left_ = false;  // the current point has changed the World
  bool kept_ = false;  // ... and boundary_ holds the golden World it left
  bool last_ = false;
};

void Walk::leave() {
  if (left_) return;
  left_ = true;
  kept_ = !last_ && on_golden_;
  if (kept_) boundary_->recapture(world_);
}

void Walk::restore(const simmpi::Snapshot* rung) {
  if (rung == nullptr) rung = fresh_;
  FSIM_CHECK(rung != nullptr);
  rung->restore(world_);
  on_golden_ = true;
}

RunOutcome Walk::run(const WalkPoint& point, util::Rng& rng,
                     const FaultStart& start, bool last) {
  left_ = false;
  last_ = last;
  RunOutcome outcome;
  std::ostringstream desc;
  bool injected = false;
  std::uint64_t replayed = 0;

  if (point.region == Region::kMessage) {
    // §3.3: choose a process, then a uniformly random point in its golden
    // received volume; the channel flips the bit when the counter passes it.
    std::vector<int> candidates;
    for (int r = 0; r < world_.size(); ++r)
      if (golden_.rx_bytes[static_cast<std::size_t>(r)] > 0)
        candidates.push_back(r);
    if (candidates.empty()) {
      outcome.fault_description = "no rank receives traffic";
      return outcome;
    }
    const int rank = candidates[rng.below(candidates.size())];
    const std::uint64_t byte =
        rng.below(golden_.rx_bytes[static_cast<std::size_t>(rank)]);
    const unsigned bit = static_cast<unsigned>(rng.below(8));
    // Fast-forward: the last rung the from-zero run would pass through
    // unchanged. Arm after the restore: it rewinds the channel, fault slot
    // included.
    const simmpi::Snapshot* rung = nullptr;
    if (golden_.ladder)
      for (const simmpi::Snapshot& r : *golden_.ladder) {
        if (r.received_bytes(rank) > byte) break;
        rung = &r;
      }
    leave();
    // A World on the golden run at t = 0 has never advanced: it is new.
    if (rung != nullptr || !on_golden_ || world_.global_instructions() != 0)
      restore(rung);
    world_.process(rank).channel().arm_fault(byte, bit);
    outcome.fault_applied = true;
    desc << "message stream of rank " << rank << " byte " << byte << " bit "
         << bit;
    outcome.injected_at = byte;
    injected = true;
  } else {
    // Fast-forward: from the start rung, or from where the last point left
    // the golden World; the loop below replays on to the boundary.
    const simmpi::Snapshot* rung =
        start.rungs_below > 0 ? &(*golden_.ladder)[start.rungs_below - 1]
                              : nullptr;
    if (!on_golden_ ||
        (rung != nullptr &&
         world_.global_instructions() < rung->instructions()))
      restore(rung);
  }

  Injector injector(point.region, point.dictionary, ctx_.analysis);

  // Early exit: once its fault can change nothing, the run is the golden
  // run, so it ends with the outcome simulating it out would give. After
  // the fault, the world is compared at every later rung's count.
  bool rejoined = false;
  const simmpi::Snapshot* rung = nullptr;
  const simmpi::Snapshot* rung_end = nullptr;
  if (golden_.ladder) {
    rung = golden_.ladder->data();
    rung_end = rung + golden_.ladder->size();
  }
  auto matches_rung = [&] {
    const std::uint64_t now = world_.global_instructions();
    while (rung != rung_end && rung->instructions() < now) ++rung;
    return rung != rung_end && rung->instructions() == now
               ? rung->matches(world_, golden_.oracle.get())
               : svm::Match::kDiffers;
  };

  while (world_.status() == simmpi::JobStatus::kRunning &&
         world_.global_instructions() < golden_.hang_budget) {
    if (!injected && world_.global_instructions() >= start.t_inject) {
      // Keep attempting until a viable target exists (e.g. the heap may
      // hold no user chunk in the first instants of the run).
      if (auto fault = injector.draw(world_, rng)) {
        outcome.fault_applied = true;
        outcome.activation = fault->activation;
        outcome.injected_at = world_.global_instructions();
        desc << "rank " << fault->rank << ": " << fault->target << " at t="
             << outcome.injected_at;
        // Pre-injection pruning (see PruneLevel): resuming a statically
        // dead fault would replay the golden run, so classify it Correct
        // now. Message faults never get here: they are armed above.
        if (ctx_.prune == PruneLevel::kFull &&
            fault->activation == Activation::kDead) {
          outcome.pruned = true;
          outcome.prune_rung = fault->rung;
          outcome.manifestation = Manifestation::kCorrect;
          outcome.fault_description = desc.str() + " (pruned: statically dead)";
          outcome.instructions = world_.global_instructions();
          break;
        }
        // The golden run never reads the flipped byte again, or no
        // instruction reads the flipped FPU bit.
        if (golden_.oracle) {
          const bool unread =
              fault->address &&
              !(*golden_.oracle)[static_cast<std::size_t>(fault->rank)]
                   .read_after(*fault->address,
                               world_.machine(fault->rank).instructions());
          if (unread || fault->inert) {
            rejoined = true;
            if (ctx_.exits != nullptr)
              ++(unread ? ctx_.exits->read_oracle : ctx_.exits->observable);
            break;
          }
        }
        leave();
        Injector::apply(world_, *fault);
        injected = true;
      }
    }
    // Up to the boundary the World is still the one the next point needs.
    if (world_.global_instructions() >= start.t_inject) leave();
    const std::uint64_t before = world_.global_instructions();
    world_.advance();
    if (!injected) replayed += world_.global_instructions() - before;
    if (injected) {
      const svm::Match match = matches_rung();
      if (match != svm::Match::kDiffers) {
        rejoined = true;
        if (ctx_.exits != nullptr) {
          ++ctx_.exits->rejoined;
          if (match == svm::Match::kObservable) ++ctx_.exits->observable;
        }
        break;
      }
    }
  }
  if (ctx_.exits != nullptr) ctx_.exits->replayed += replayed;

  if (!outcome.pruned) {
    outcome.fault_description = desc.str();
    classify(point.region, rejoined, outcome);
  }
  if (left_) {
    // The point changed the World: put the golden boundary back, or, after
    // the last point, leave the World as the point ended it.
    on_golden_ = kept_;
    if (kept_) boundary_->restore(world_);
  }
  return outcome;
}

void Walk::classify(Region region, bool rejoined, RunOutcome& outcome) {
  outcome.instructions =
      rejoined ? golden_.instructions : world_.global_instructions();

  if (region == Region::kMessage) {
    for (int r = 0; r < world_.size(); ++r) {
      const simmpi::ChannelFault& f = world_.process(r).channel().fault();
      if (f.armed && f.fired) {
        outcome.msg_fired = true;
        outcome.msg_hit_header = f.hit_header;
        outcome.msg_offset_in_packet = f.offset_in_packet;
      }
    }
  }

  if (rejoined) {
    outcome.manifestation = Manifestation::kCorrect;
    return;
  }
  switch (world_.status()) {
    case simmpi::JobStatus::kCrashed:
      outcome.manifestation = Manifestation::kCrash;
      outcome.crash_kind = classify_trap(world_.crash_trap());
      outcome.failure_detail = world_.failure_message();
      break;
    case simmpi::JobStatus::kMpiFatal:
      // MPICH-reported fatal errors appear on STDERR and are classified as
      // crashes, exactly like critical signals (§5.1).
      outcome.manifestation = Manifestation::kCrash;
      outcome.crash_kind = CrashKind::kMpiFatal;
      outcome.failure_detail = "MPICH fatal: " + world_.failure_message();
      break;
    case simmpi::JobStatus::kAppAborted:
      outcome.manifestation = Manifestation::kAppDetected;
      break;
    case simmpi::JobStatus::kMpiHandler:
      outcome.manifestation = Manifestation::kMpiDetected;
      break;
    case simmpi::JobStatus::kDeadlocked:
    case simmpi::JobStatus::kRunning:  // hang budget exhausted
      outcome.manifestation = Manifestation::kHang;
      outcome.failure_detail = world_.status() == simmpi::JobStatus::kRunning
                                   ? "timeout"
                                   : "deadlock";
      break;
    case simmpi::JobStatus::kCompleted: {
      std::string storage;
      const std::string& observed = baseline_stream(app_, world_, storage);
      if (observed == golden_.baseline) {
        outcome.manifestation = Manifestation::kCorrect;
      } else {
        outcome.manifestation = Manifestation::kIncorrect;
        outcome.failure_detail = "silent output corruption";
      }
      break;
    }
  }
}

}  // namespace

void run_walk(const apps::App& app, const svm::Program& program,
              const Golden& golden, std::span<const WalkPoint> points,
              const RunContext& ctx, WorldSlot* slot, const WalkVisit& visit) {
  // Walks share nothing they write: each runs in a World of its own (or
  // its caller's slot's), built from the shared image, so walks stay fully
  // independent and safe to execute concurrently; faults are injected into
  // the World's memory, never into `program`. A walk of several points
  // needs the snapshots a slot keeps, so it borrows one of its own.
  WorldSlot own_slot;
  if (slot == nullptr && points.size() > 1) slot = &own_slot;
  std::unique_ptr<simmpi::World> own;
  bool built = true;
  simmpi::World& world = slot != nullptr
                             ? slot->bind(app, program, ctx, built)
                             : *(own = run_world(app, program, ctx));
  // A new World is the golden run's at t = 0; a kept one is wherever its
  // last walk left it.
  Walk walk(app, golden, ctx, world, slot != nullptr ? &slot->fresh_ : nullptr,
            slot != nullptr ? &slot->boundary_ : nullptr, built);

  struct Visit {
    std::size_t index;
    util::Rng rng;
    FaultStart start;
  };
  std::vector<Visit> order;
  order.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    util::Rng rng(points[i].seed);
    const FaultStart start = fault_start(golden, rng);
    order.push_back({i, rng, start});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Visit& a, const Visit& b) {
                     return a.start.t_inject < b.start.t_inject;
                   });
  for (std::size_t k = 0; k < order.size(); ++k) {
    Visit& v = order[k];
    const RunOutcome outcome =
        walk.run(points[v.index], v.rng, v.start, k + 1 == order.size());
    if (!visit(v.index, outcome)) return;
  }
}

std::vector<std::vector<std::size_t>> walks_of(
    const Golden& golden, std::span<const WalkPoint> points) {
  std::vector<std::vector<std::size_t>> walks;
  std::vector<std::size_t> by_rung;  // rungs below -> walk index + 1
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].region == Region::kMessage) {
      walks.push_back({i});
      continue;
    }
    util::Rng rng(points[i].seed);
    const std::size_t rung = fault_start(golden, rng).rungs_below;
    if (by_rung.size() <= rung) by_rung.resize(rung + 1, 0);
    if (by_rung[rung] == 0) {
      walks.emplace_back();
      by_rung[rung] = walks.size();
    }
    walks[by_rung[rung] - 1].push_back(i);
  }
  return walks;
}

RunOutcome run_injected(const apps::App& app, const svm::Program& program,
                        const Golden& golden, Region region,
                        const FaultDictionary* dictionary, std::uint64_t seed,
                        const RunContext& ctx, WorldSlot* slot) {
  const WalkPoint point{region, dictionary, seed};
  RunOutcome outcome;
  run_walk(app, program, golden, {&point, 1}, ctx, slot,
           [&outcome](std::size_t, const RunOutcome& out) {
             outcome = out;
             return true;
           });
  return outcome;
}

}  // namespace fsim::core
