#include "core/run.hpp"

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
                               const RunContext& ctx,
                               const simmpi::Snapshot*& start) {
  if (world_ && program_ == &program && compiled_ == ctx.compiled.get() &&
      engine_ == ctx.engine) {
    start = &fresh_;  // the last run left the World wherever it ended
    return *world_;
  }
  world_.reset();  // release the old address spaces before mapping new ones
  world_ = run_world(app, program, ctx);
  fresh_ = simmpi::Snapshot::capture(*world_);
  program_ = &program;
  compiled_ = ctx.compiled.get();
  engine_ = ctx.engine;
  start = nullptr;
  return *world_;
}

RunOutcome run_injected(const apps::App& app, const svm::Program& program,
                        const Golden& golden, Region region,
                        const FaultDictionary* dictionary, std::uint64_t seed,
                        const RunContext& ctx, WorldSlot* slot) {
  util::Rng rng(seed);
  // Runs share nothing they write: each runs in a World of its own (or its
  // caller's slot's), built from the shared image, so runs stay fully
  // independent and safe to execute concurrently; the fault is injected
  // into the World's memory, never into `program`.
  std::unique_ptr<simmpi::World> own;
  // The state to rewind the World to when no ladder rung comes first:
  // null for a new World, which already is in it.
  const simmpi::Snapshot* fresh = nullptr;
  simmpi::World& world = slot != nullptr
                             ? slot->bind(app, program, ctx, fresh)
                             : *(own = run_world(app, program, ctx));

  RunOutcome outcome;
  std::ostringstream desc;

  const std::uint64_t t_inject =
      golden.instructions ? rng.below(golden.instructions) : 0;

  // Fast-forward: restore the last rung the from-zero run would pass
  // through unchanged (see run_injected in run.hpp).
  auto fast_forward = [&](auto before_fault) {
    const simmpi::Snapshot* start = fresh;
    if (golden.ladder)
      for (const simmpi::Snapshot& rung : *golden.ladder) {
        if (!before_fault(rung)) break;
        start = &rung;
      }
    if (start != nullptr) start->restore(world);
  };

  if (region == Region::kMessage) {
    // §3.3: choose a process, then a uniformly random point in its golden
    // received volume; the channel flips the bit when the counter passes it.
    std::vector<int> candidates;
    for (int r = 0; r < world.size(); ++r)
      if (golden.rx_bytes[static_cast<std::size_t>(r)] > 0)
        candidates.push_back(r);
    if (candidates.empty()) {
      outcome.fault_description = "no rank receives traffic";
      return outcome;
    }
    const int rank = candidates[rng.below(candidates.size())];
    const std::uint64_t byte =
        rng.below(golden.rx_bytes[static_cast<std::size_t>(rank)]);
    const unsigned bit = static_cast<unsigned>(rng.below(8));
    // Arm after the restore: it rewinds the channel, fault slot included.
    fast_forward([&](const simmpi::Snapshot& rung) {
      return rung.received_bytes(rank) <= byte;
    });
    world.process(rank).channel().arm_fault(byte, bit);
    outcome.fault_applied = true;
    desc << "message stream of rank " << rank << " byte " << byte << " bit "
         << bit;
    outcome.injected_at = byte;
  } else {
    fast_forward([&](const simmpi::Snapshot& rung) {
      return rung.instructions() < t_inject;
    });
  }

  Injector injector(region, dictionary, ctx.analysis);
  bool injected = region == Region::kMessage;

  // Early exit: once its fault can change nothing, the run is the golden
  // run, so it ends with the outcome simulating it out would give. After
  // the fault, the world is compared at every later rung's count.
  bool rejoined = false;
  const simmpi::Snapshot* rung = nullptr;
  const simmpi::Snapshot* rung_end = nullptr;
  if (golden.ladder) {
    rung = golden.ladder->data();
    rung_end = rung + golden.ladder->size();
  }
  auto matches_rung = [&] {
    const std::uint64_t now = world.global_instructions();
    while (rung != rung_end && rung->instructions() < now) ++rung;
    return rung != rung_end && rung->instructions() == now
               ? rung->matches(world, golden.oracle.get())
               : svm::Match::kDiffers;
  };

  while (world.status() == simmpi::JobStatus::kRunning &&
         world.global_instructions() < golden.hang_budget) {
    if (!injected && world.global_instructions() >= t_inject) {
      // Keep attempting until a viable target exists (e.g. the heap may
      // hold no user chunk in the first instants of the run).
      if (auto fault = injector.inject(world, rng)) {
        injected = true;
        outcome.fault_applied = true;
        outcome.activation = fault->activation;
        outcome.injected_at = world.global_instructions();
        desc << "rank " << fault->rank << ": " << fault->target << " at t="
             << outcome.injected_at;
        // Pre-injection pruning (see PruneLevel): resuming a statically
        // dead fault would replay the golden run, so classify it Correct
        // now. Message faults never get here: they are armed above.
        if (ctx.prune == PruneLevel::kFull &&
            fault->activation == Activation::kDead) {
          outcome.pruned = true;
          outcome.prune_rung = fault->rung;
          outcome.manifestation = Manifestation::kCorrect;
          outcome.fault_description = desc.str() + " (pruned: statically dead)";
          outcome.instructions = world.global_instructions();
          return outcome;
        }
        // The golden run never reads the flipped byte again, or no
        // instruction reads the flipped FPU bit.
        if (golden.oracle) {
          const bool unread =
              fault->address &&
              !(*golden.oracle)[static_cast<std::size_t>(fault->rank)]
                   .read_after(*fault->address,
                               world.machine(fault->rank).instructions());
          if (unread || fault->inert) {
            rejoined = true;
            if (ctx.exits != nullptr)
              ++(unread ? ctx.exits->read_oracle : ctx.exits->observable);
            break;
          }
        }
      }
    }
    world.advance();
    if (injected) {
      const svm::Match match = matches_rung();
      if (match != svm::Match::kDiffers) {
        rejoined = true;
        if (ctx.exits != nullptr) {
          ++ctx.exits->rejoined;
          if (match == svm::Match::kObservable) ++ctx.exits->observable;
        }
        break;
      }
    }
  }

  outcome.fault_description = desc.str();
  outcome.instructions =
      rejoined ? golden.instructions : world.global_instructions();

  if (region == Region::kMessage) {
    for (int r = 0; r < world.size(); ++r) {
      const simmpi::ChannelFault& f = world.process(r).channel().fault();
      if (f.armed && f.fired) {
        outcome.msg_fired = true;
        outcome.msg_hit_header = f.hit_header;
        outcome.msg_offset_in_packet = f.offset_in_packet;
      }
    }
  }

  if (rejoined) {
    outcome.manifestation = Manifestation::kCorrect;
    return outcome;
  }
  switch (world.status()) {
    case simmpi::JobStatus::kCrashed:
      outcome.manifestation = Manifestation::kCrash;
      outcome.crash_kind = classify_trap(world.crash_trap());
      outcome.failure_detail = world.failure_message();
      break;
    case simmpi::JobStatus::kMpiFatal:
      // MPICH-reported fatal errors appear on STDERR and are classified as
      // crashes, exactly like critical signals (§5.1).
      outcome.manifestation = Manifestation::kCrash;
      outcome.crash_kind = CrashKind::kMpiFatal;
      outcome.failure_detail = "MPICH fatal: " + world.failure_message();
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
      outcome.failure_detail = world.status() == simmpi::JobStatus::kRunning
                                   ? "timeout"
                                   : "deadlock";
      break;
    case simmpi::JobStatus::kCompleted: {
      std::string storage;
      const std::string& observed = baseline_stream(app, world, storage);
      if (observed == golden.baseline) {
        outcome.manifestation = Manifestation::kCorrect;
      } else {
        outcome.manifestation = Manifestation::kIncorrect;
        outcome.failure_detail = "silent output corruption";
      }
      break;
    }
  }
  return outcome;
}

}  // namespace fsim::core
