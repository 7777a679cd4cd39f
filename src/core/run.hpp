// Single-execution driver: golden (fault-free) runs and injected runs with
// outcome classification (§5.1).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
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
  /// Optional tally of the runs that ended early against the golden run
  /// (diagnostics; never changes an outcome).
  struct EarlyExits {
    std::atomic<std::uint64_t> read_oracle{0};  // fault never read again
    std::atomic<std::uint64_t> rejoined{0};     // world matched a later rung
    /// Exits that rest on state no instruction reads: inert FPU flips ended
    /// at injection, plus the rejoins above that matched only observably.
    std::atomic<std::uint64_t> observable{0};
  };
  EarlyExits* exits = nullptr;
};

/// A World kept from one injected run to the next, so that a run restores
/// its start state into it instead of constructing a World of its own.
/// Construction maps and fills every rank's address space; a restore
/// writes back only what the last run touched. A slot serves one caller at
/// a time (each pool worker of a BatchSession keeps its own) and holds a
/// World for one (program, engine, compiled stream) at a time: a run for
/// another builds it afresh. The slot also keeps a
/// snapshot of its World as constructed; a run that starts before the
/// golden ladder's first rung restores that, so it starts from exactly the
/// state a new World has (Snapshot.RestoreIntoUsedWorldEqualsFresh).
class WorldSlot {
 public:
  WorldSlot();
  ~WorldSlot();
  WorldSlot(WorldSlot&&) noexcept;
  WorldSlot& operator=(WorldSlot&&) noexcept;

 private:
  friend RunOutcome run_injected(const apps::App&, const svm::Program&,
                                 const Golden&, Region,
                                 const FaultDictionary*, std::uint64_t,
                                 const RunContext&, WorldSlot*);
  /// The slot's World for `program` under `ctx`, built if the slot holds
  /// none or one for something else. `start` is null when the World is
  /// new, else the snapshot that rewinds it to new.
  simmpi::World& bind(const apps::App& app, const svm::Program& program,
                      const RunContext& ctx, const simmpi::Snapshot*& start);

  std::unique_ptr<simmpi::World> world_;
  simmpi::Snapshot fresh_;  // world_ as constructed
  const svm::Program* program_ = nullptr;
  const svm::exec::CompiledProgram* compiled_ = nullptr;
  svm::exec::EngineKind engine_ = svm::exec::EngineKind::kThreaded;
};

/// Run once with a single injected fault and classify the outcome.
///  * memory/register regions: the fault fires at a uniformly random global
///    instruction t in [0, golden.instructions);
///  * message region: a {byte, bit} fault is armed on a random rank's
///    channel with the byte uniform in that rank's golden received volume.
/// Text, data and BSS faults draw their targets from `dictionary`, which
/// must then be non-null; `ctx` tags and prunes (the default context does
/// neither). The run is identical to the golden one until the fault, so it
/// starts from the last ladder rung the fault cannot precede: the last
/// rung strictly below t (the fault belongs to the first boundary whose
/// count reaches t, and a rung at t would be it only if no earlier
/// boundary had the same count), or for a message fault the last rung
/// where the target rank has received no more than the armed byte.
///
/// A run also ends early, with exactly the outcome simulating it to the end
/// gives (Correct at golden.instructions), once its fault can change
/// nothing: at injection, when the golden oracle shows no later read of a
/// flipped memory byte or the flipped FPU bit is inert (AppliedFault::
/// inert); or after the fault, when the world matches a later rung in all
/// the state a later instruction reads (Snapshot::matches with the oracle;
/// a message fault only once it has fired). Without the oracle nothing
/// ends at injection, and a rung must match in every memory byte.
///
/// Given a `slot`, the run restores into the slot's World (see WorldSlot)
/// and leaves it there for the next run; without one it builds a World of
/// its own. The outcome is the same either way.
RunOutcome run_injected(const apps::App& app, const svm::Program& program,
                        const Golden& golden, Region region,
                        const FaultDictionary* dictionary, std::uint64_t seed,
                        const RunContext& ctx = {}, WorldSlot* slot = nullptr);

}  // namespace fsim::core
