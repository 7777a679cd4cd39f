// Single-execution driver: golden (fault-free) runs and injected runs with
// outcome classification (§5.1).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hpp"
#include "core/dictionary.hpp"
#include "core/outcome.hpp"
#include "simmpi/snapshot.hpp"
#include "svm/exec/engine.hpp"
#include "svm/readlog.hpp"
#include "util/rng.hpp"

namespace fsim::svm::analysis {
class ProgramAnalysis;
}
namespace fsim::svm::exec {
class CompiledProgram;
}
namespace fsim::simmpi {
class World;
}

namespace fsim::core {

/// Everything the classifier needs from the fault-free reference execution.
struct Golden {
  std::uint64_t instructions = 0;       // global instruction count
  std::string baseline;                 // output file or console (per app)
  std::vector<std::uint64_t> rx_bytes;  // received volume per rank (§3.3)
  std::uint64_t hang_budget = 0;        // instructions before we call it a hang
  /// Snapshots of the golden run at scheduler-round boundaries, in order,
  /// that injected runs fast-forward from — and, after their fault, end at
  /// once they match one again. Shared read-only by every run; never
  /// serialized (a Golden read back from a document has none, and its runs
  /// simply start from t=0 and run to the end).
  std::shared_ptr<const std::vector<simmpi::Snapshot>> ladder;
  /// Per rank, when the golden run last read each word of its text, data,
  /// BSS, heap and stack (svm/readlog.hpp). A memory fault no later read
  /// observes ends at injection, as does an inert FP flip, and a rung match
  /// ignores granules it shows are never read again. Recorded with the
  /// ladder, shared and never serialized the same way; without it runs end
  /// only at a rung they match in every memory byte.
  std::shared_ptr<const std::vector<svm::ReadLog>> oracle;
};

/// Run the application fault-free against an already-linked image. Throws
/// SetupError if it does not complete — a broken golden run invalidates
/// the whole campaign. With the injected runs' world seed (1), it also
/// records the fast-forward ladder: a rung at the first round boundary
/// past every multiple of a stride, the stride doubling (and every other
/// rung dropped) whenever the ladder reaches 32 rungs, so a long run ends
/// with 16–32 evenly spread rungs. The same run records the read oracle
/// (either engine records the same one), unless a rank runs past 2^32 - 1
/// instructions. The assembler is deterministic, so a
/// caller links once and shares the `Program` read-only across every run,
/// on any thread; core::prepare (campaign.hpp) does all of this.
Golden run_golden(
    const apps::App& app, const svm::Program& program, std::uint64_t seed = 1,
    svm::exec::EngineKind engine = svm::exec::EngineKind::kThreaded,
    std::shared_ptr<const svm::exec::CompiledProgram> compiled = nullptr);

/// Which statically-dead fault classes may be classified Correct without
/// resuming the run. A dead tag proves the flipped bit is never observed
/// (register overwritten before any read, FP slot behind an empty tag,
/// text never fetched, data/BSS byte never read, heap chunk whose
/// allocation site is read-free, stack slot its activation never reads
/// again), so the resumed run would replay the golden one. Pruning is
/// therefore sound — aggregates are bit-identical at both levels; kFull
/// merely skips already-decided runs. The values are explicit because
/// spec_digest mixes them and binary checkpoints carry them; 1 was an
/// integer-registers-only level and is refused wherever a level is read.
enum class PruneLevel : std::uint8_t {
  kOff = 0,   // never prune
  kFull = 2,  // provably dead integer registers, empty FP slots,
              // unreachable text, dead data/BSS, dead heap allocation
              // sites, dead stack-frame slots
};

/// "off" | "full".
const char* prune_level_name(PruneLevel level) noexcept;

/// Parse a --prune value: exactly one of the level names; nullopt on
/// anything else.
std::optional<PruneLevel> parse_prune_level(std::string_view text) noexcept;

/// Static-analysis context for an injected run.
struct RunContext {
  /// Built once per campaign from the linked image; tags faults with their
  /// static activation class. May be null (no tagging, no pruning).
  const svm::analysis::ProgramAnalysis* analysis = nullptr;
  /// Pre-injection pruning level (see PruneLevel).
  PruneLevel prune = PruneLevel::kOff;
  /// Execution engine for every machine of the run. Both engines are
  /// bit-identical at quantum boundaries, so this never changes outcomes —
  /// only throughput.
  svm::exec::EngineKind engine = svm::exec::EngineKind::kThreaded;
  /// Pre-lowered instruction stream shared across runs (campaigns lower
  /// once per batch entry). Null = each machine lowers its own lazily.
  std::shared_ptr<const svm::exec::CompiledProgram> compiled;
  /// Optional tally of the runs that ended early against the golden run,
  /// and of the golden replay before their faults (diagnostics; never
  /// changes an outcome and enters no digest).
  struct EarlyExits {
    std::atomic<std::uint64_t> read_oracle{0};  // fault never read again
    std::atomic<std::uint64_t> rejoined{0};     // world matched a later rung
    /// Exits that rest on state no instruction reads: inert FPU flips ended
    /// at injection, plus the rejoins above that matched only observably.
    std::atomic<std::uint64_t> observable{0};
    /// Instructions a memory or register run advanced while its world was
    /// still the golden run's: from its start rung (or the last point of
    /// its walk) to its injection boundary, and past boundaries where no
    /// target was viable yet.
    std::atomic<std::uint64_t> replayed{0};
  };
  EarlyExits* exits = nullptr;
};

/// Where a memory or register run leaves the golden run. Its fault time
/// t_inject is the first draw of the run's RNG, uniform in
/// [0, golden.instructions); the fault belongs to the first round boundary
/// whose global count reaches it. The run is the golden run until then, so
/// it starts from the last ladder rung strictly below t_inject, or from
/// t = 0 when there is none (a rung at t_inject would be the fault's
/// boundary only if no earlier boundary had the same count).
struct FaultStart {
  std::uint64_t t_inject = 0;
  std::size_t rungs_below = 0;  // the run starts from rung rungs_below - 1
};

/// The FaultStart of the run whose RNG is `rng`, advanced past the draw.
/// run_walk and the grouping of a batch's points into walks
/// (BatchSession::run_points) both read it here.
FaultStart fault_start(const Golden& golden, util::Rng& rng);

/// One injected run of a walk: its region, the dictionary a text, data or
/// BSS fault draws from (see run_walk) and its seed.
struct WalkPoint {
  Region region{};
  const FaultDictionary* dictionary = nullptr;
  std::uint64_t seed = 0;
};

/// Receives a walk's outcomes one by one, each with its point's index in
/// the walk's list; returning false ends the walk before its next point.
using WalkVisit = std::function<bool(std::size_t, const RunOutcome&)>;

/// A World kept from one injected run to the next, so that a run restores
/// its start state into it instead of constructing a World of its own.
/// Construction maps and fills every rank's address space; a restore
/// writes back only what the last run touched. A slot serves one caller at
/// a time (each pool worker of a BatchSession keeps its own) and holds a
/// World for one (program, engine, compiled stream) at a time: a run for
/// another builds it afresh. The slot also keeps a
/// snapshot of its World as constructed; a run that starts before the
/// golden ladder's first rung restores that, so it starts from exactly the
/// state a new World has (Snapshot.RestoreIntoUsedWorldEqualsFresh). A
/// walk (run_walk) keeps the golden boundary it has reached in a third
/// snapshot of the slot's, recaptured in place point after point.
class WorldSlot {
 public:
  WorldSlot();
  ~WorldSlot();
  WorldSlot(WorldSlot&&) noexcept;
  WorldSlot& operator=(WorldSlot&&) noexcept;

 private:
  friend void run_walk(const apps::App&, const svm::Program&, const Golden&,
                       std::span<const WalkPoint>, const RunContext&,
                       WorldSlot*, const WalkVisit&);
  /// The slot's World for `program` under `ctx`, built if the slot holds
  /// none or one for something else; `built` says which.
  simmpi::World& bind(const apps::App& app, const svm::Program& program,
                      const RunContext& ctx, bool& built);

  std::unique_ptr<simmpi::World> world_;
  simmpi::Snapshot fresh_;     // world_ as constructed
  simmpi::Snapshot boundary_;  // a walk's golden boundary (run_walk)
  const svm::Program* program_ = nullptr;
  const svm::exec::CompiledProgram* compiled_ = nullptr;
  svm::exec::EngineKind engine_ = svm::exec::EngineKind::kThreaded;
};

/// Run each point once with a single injected fault, classify its outcome
/// and hand it to `visit`. Every outcome is exactly the one the point's run
/// alone gives:
///  * memory/register regions: the fault fires at the first round boundary
///    whose global count reaches t_inject (FaultStart), in a target drawn
///    there by Injector::draw;
///  * message region: a {byte, bit} fault is armed on a random rank's
///    channel with the byte uniform in that rank's golden received volume.
/// Text, data and BSS faults draw their targets from the point's
/// dictionary, which must then be non-null; `ctx` tags and prunes (the
/// default context does neither).
///
/// A run is the golden run until its fault, so the walk shares that
/// replay. It visits the memory and register points in ascending
/// t_inject (ties in list order) on one golden World: it restores a
/// point's start rung unless the World is on the golden run at or past it,
/// then advances the World to the point's injection boundary and draws the
/// fault there. A fault that is already decided (pruned, unread by the
/// golden run after, or an inert FP flip) gets its outcome from the
/// untouched World, which moves on to the next point. Otherwise the walk
/// captures the boundary (unless no point follows), runs the point on from
/// there and restores the boundary afterwards. A message point restores
/// the last rung where its rank has received no more than the armed byte,
/// arms the byte and runs; a rung at the byte's own volume still precedes
/// the flip.
///
/// A run also ends early, with exactly the outcome simulating it to the end
/// gives (Correct at golden.instructions), once its fault can change
/// nothing: at injection, when the golden oracle shows no later read of a
/// flipped memory byte or the flipped FPU bit is inert (AppliedFault::
/// inert); or after the fault, when the world matches a later rung in all
/// the state a later instruction reads (Snapshot::matches with the oracle;
/// a message fault only once it has fired). Without the oracle nothing
/// ends at injection, and a rung must match in every memory byte. A job
/// that completes before t_inject ends unfaulted (fault_applied false).
///
/// Given a `slot`, the walk restores into the slot's World (see WorldSlot)
/// and leaves it there for the next walk; without one it builds a World of
/// its own. The outcomes are the same either way, and the same however
/// the points are split into walks.
void run_walk(const apps::App& app, const svm::Program& program,
              const Golden& golden, std::span<const WalkPoint> points,
              const RunContext& ctx, WorldSlot* slot, const WalkVisit& visit);

/// Split `points` into the walks a batch runs them in: the memory and
/// register points that start from one ladder rung (FaultStart::
/// rungs_below) form one walk, and each message point walks alone. A walk
/// is one rung interval; no constant sizes it. Returns each walk as
/// indices into `points` in list order, the walks in the order of their
/// first points.
std::vector<std::vector<std::size_t>> walks_of(
    const Golden& golden, std::span<const WalkPoint> points);

/// One injected run, classified: the walk of the one point
/// {region, dictionary, seed} (see run_walk).
RunOutcome run_injected(const apps::App& app, const svm::Program& program,
                        const Golden& golden, Region region,
                        const FaultDictionary* dictionary, std::uint64_t seed,
                        const RunContext& ctx = {}, WorldSlot* slot = nullptr);

}  // namespace fsim::core
