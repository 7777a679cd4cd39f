// Error-manifestation taxonomy (paper §5.1).
#pragma once

#include <cstdint>
#include <string>

namespace fsim::core {

/// Injection target regions — the rows of Tables 2-4.
enum class Region : std::uint8_t {
  kRegularReg = 0,  // integer register file
  kFpReg,           // x87-style FPU: data registers + TWD/CWD/SWD/FIP/...
  kBss,
  kData,
  kStack,           // live user stack frames (EBP-walk filtered)
  kText,
  kHeap,            // live user-tagged malloc chunks
  kMessage,         // incoming channel byte stream
  kCount,
};

inline constexpr unsigned kNumRegions = static_cast<unsigned>(Region::kCount);

constexpr const char* region_name(Region r) noexcept {
  switch (r) {
    case Region::kRegularReg: return "Regular Reg.";
    case Region::kFpReg: return "FP Reg.";
    case Region::kBss: return "BSS";
    case Region::kData: return "Data";
    case Region::kStack: return "Stack";
    case Region::kText: return "Text";
    case Region::kHeap: return "Heap";
    case Region::kMessage: return "Message";
    case Region::kCount: break;
  }
  return "?";
}

/// Parse "regular"/"fp"/"bss"/... (bench CLI). Throws SetupError on miss.
Region parse_region(const std::string& name);

/// Canonical CLI/spec-file token for a region; parse_region(region_token(r))
/// == r. (`region_name` is the display form used in tables.)
constexpr const char* region_token(Region r) noexcept {
  switch (r) {
    case Region::kRegularReg: return "regular";
    case Region::kFpReg: return "fp";
    case Region::kBss: return "bss";
    case Region::kData: return "data";
    case Region::kStack: return "stack";
    case Region::kText: return "text";
    case Region::kHeap: return "heap";
    case Region::kMessage: return "message";
    case Region::kCount: break;
  }
  return "?";
}

/// How one injected run manifested (§5.1's disjoint classes).
enum class Manifestation : std::uint8_t {
  kCorrect = 0,   // no observable effect
  kCrash,         // MPICH reported a critical signal / fatal library error
  kHang,          // did not finish within the timeout, or deadlocked
  kIncorrect,     // finished silently with wrong output (most dangerous)
  kAppDetected,   // an application assertion/consistency check fired
  kMpiDetected,   // the user-registered MPI error handler was invoked
  kCount,
};

inline constexpr unsigned kNumManifestations =
    static_cast<unsigned>(Manifestation::kCount);

constexpr const char* manifestation_name(Manifestation m) noexcept {
  switch (m) {
    case Manifestation::kCorrect: return "Correct";
    case Manifestation::kCrash: return "Crash";
    case Manifestation::kHang: return "Hang";
    case Manifestation::kIncorrect: return "Incorrect";
    case Manifestation::kAppDetected: return "App Detected";
    case Manifestation::kMpiDetected: return "MPI Detected";
    case Manifestation::kCount: break;
  }
  return "?";
}

/// Finer classification of Crash outcomes (which signal / library failure
/// killed the job). The paper folds all of these into "Crash" (§5.1:
/// MPICH reports critical signals on STDERR); the breakdown is diagnostic.
enum class CrashKind : std::uint8_t {
  kNone = 0,
  kSigsegv,   // bad address / write-protection / stack overflow
  kSigill,    // undefined opcode
  kSigfpe,    // integer divide fault
  kSigbus,    // misaligned access
  kOther,     // remaining traps (bad syscall, heap exhaustion)
  kMpiFatal,  // the MPI library aborted the job
  kCount,
};

inline constexpr unsigned kNumCrashKinds =
    static_cast<unsigned>(CrashKind::kCount);

constexpr const char* crash_kind_name(CrashKind k) noexcept {
  switch (k) {
    case CrashKind::kNone: return "none";
    case CrashKind::kSigsegv: return "SIGSEGV";
    case CrashKind::kSigill: return "SIGILL";
    case CrashKind::kSigfpe: return "SIGFPE";
    case CrashKind::kSigbus: return "SIGBUS";
    case CrashKind::kOther: return "other";
    case CrashKind::kMpiFatal: return "MPI fatal";
    case CrashKind::kCount: break;
  }
  return "?";
}

/// Static activation class of an injected fault (the analyzer's verdict on
/// whether the corrupted state can ever be consumed; see svm/analysis/).
/// Mirrors the paper's §6-§7 activation discussion: most flips land in
/// state that is overwritten before it is read.
enum class Activation : std::uint8_t {
  kUnknown = 0,  // target not covered by the static analysis
  kLive,         // some path may consume the corrupted state
  kDead,         // provably overwritten before any read / never referenced
};

constexpr const char* activation_name(Activation a) noexcept {
  switch (a) {
    case Activation::kUnknown: return "unknown";
    case Activation::kLive: return "live";
    case Activation::kDead: return "dead";
  }
  return "?";
}

/// Which rung of the static precision ladder decided a pruned run. The
/// ladder is attribution-ordered: a fault provable by several analyses is
/// credited to the lowest rung that proves it, so per-rung counts measure
/// the *marginal* coverage each precision step adds.
enum class PruneRung : std::uint8_t {
  kNone = 0,     // run was not pruned
  kBase,         // PR-2/4 proofs: register liveness, context-insensitive FP
                 // depth, text reachability, whole-run memory liveness
  kFpCtx,        // context-sensitive FP-stack depth (summary-composed)
  kTimeWindow,   // time-windowed memory liveness (dead from this pc on)
  kValueRange,   // value-range refined reachability
  kHeap,         // allocation-site chunk liveness (write-only / read-free
                 // window over `sys 8` result flows)
  kFrame,        // activation-windowed stack-frame slot liveness
  kCount,
};

inline constexpr unsigned kNumPruneRungs =
    static_cast<unsigned>(PruneRung::kCount);

/// Stable token for reports/JSON ("base", "fp-ctx", "time-window",
/// "value-range", "heap", "frame"; "none" for unpruned runs).
constexpr const char* prune_rung_token(PruneRung r) noexcept {
  switch (r) {
    case PruneRung::kNone: return "none";
    case PruneRung::kBase: return "base";
    case PruneRung::kFpCtx: return "fp-ctx";
    case PruneRung::kTimeWindow: return "time-window";
    case PruneRung::kValueRange: return "value-range";
    case PruneRung::kHeap: return "heap";
    case PruneRung::kFrame: return "frame";
    case PruneRung::kCount: break;
  }
  return "?";
}

/// Result of one injected execution.
struct RunOutcome {
  Manifestation manifestation = Manifestation::kCorrect;
  std::string fault_description;  // what was flipped, where, when
  std::string failure_detail;     // signal name / abort message / diff note
  std::uint64_t injected_at = 0;  // global instruction count at injection
  std::uint64_t instructions = 0;
  bool fault_applied = false;     // false when no viable target existed
  CrashKind crash_kind = CrashKind::kNone;  // set when manifestation==kCrash
  Activation activation = Activation::kUnknown;  // static class of the target
  bool pruned = false;  // classified Correct statically, without resuming
  /// Ladder rung whose proof decided the pruned run (kNone when !pruned).
  PruneRung prune_rung = PruneRung::kNone;

  // Message-region diagnostics (§6.2 header-vs-payload analysis).
  bool msg_fired = false;       // the armed channel fault actually flipped
  bool msg_hit_header = false;  // the flipped byte was inside a header
  std::uint64_t msg_offset_in_packet = 0;

  bool operator==(const RunOutcome&) const = default;
};

}  // namespace fsim::core
