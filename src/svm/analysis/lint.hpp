// Static diagnostics over a linked program image: the `fsim lint` engine.
//
// Errors are structural defects that will trap or corrupt execution if the
// code is ever reached (targets outside code, falling off the end of a
// segment, FP-stack and call-frame imbalance); warnings are smells
// (unreachable code, registers read before any write, write-only or
// never-written data symbols). The apps gate on errors in CI; intentional
// smells — the cold-code regions exist precisely to be unreachable — are
// acknowledged through symbol-prefix suppressions rather than silenced
// globally.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "svm/analysis/cfg.hpp"
#include "svm/analysis/liveness.hpp"

namespace fsim::svm::analysis {

enum class Severity : std::uint8_t { kWarning, kError };

struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string code;     // stable machine id, e.g. "bad-branch-target"
  Addr addr = 0;        // anchor address (0 when not address-specific)
  std::string symbol;   // covering symbol, if any
  std::string message;  // human-readable detail
};

/// How reachable code touches one user data/BSS symbol.
struct SymbolAccess {
  bool read = false;
  bool written = false;
  /// The symbol's address escaped local tracking (passed to a call or
  /// syscall, stored, combined into a computed address, or live across a
  /// block boundary) — assume it is both read and written.
  bool escaped = false;
  /// Static access-site counts (load/store instructions whose tracked
  /// address lands in the symbol); escapes are not counted as sites.
  int read_sites = 0;
  int write_sites = 0;
  /// PCs of the read sites (one entry per read_sites increment) — the
  /// anchor points of the time-windowed liveness analysis.
  std::vector<Addr> read_pcs;
};

/// Scan reachable blocks for direct loads/stores through `la`-materialised
/// addresses. Keyed by symbol address; only user kData/kBss symbols appear.
/// `live` must be a DefUseModel::kSound liveness over the same CFG: its
/// dead-register proofs let the scan drop a materialised address at a call
/// or block boundary without escaping the symbol — a dead register is
/// overwritten before any read on every path, so its address copy can
/// never be dereferenced. ProgramAnalysis runs the one scan everything
/// else reads (`symbol_access()`).
std::map<Addr, SymbolAccess> scan_symbol_access(const Cfg& cfg,
                                                const Liveness& live);

struct LintOptions {
  /// Symbol-name prefixes whose warnings are suppressed (e.g. "wt_" for
  /// wavetoy's intentionally-cold code).
  std::vector<std::string> suppress;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;  // errors first, then warnings
  int errors = 0;
  int warnings = 0;
  int suppressed = 0;  // warnings swallowed by the suppression list
};

class ProgramAnalysis;

/// Run every check over the analysis bundle of one image. The FP-depth,
/// value-range, symbol-access, memory- and heap-liveness findings are the
/// bundle's own; lint adds only the DefUseModel::kLint register liveness
/// behind `uninit-reg-read`. Reads `analysis.cfg().program()`, which stays
/// valid for as long as the bundle does (see ProgramAnalysis).
LintResult run_lint(const ProgramAnalysis& analysis,
                    const LintOptions& options = {});

/// Render diagnostics as an aligned text table (one line per diagnostic,
/// stable order) plus a summary line.
std::string format_lint(const LintResult& result, const std::string& name);

/// Render as a JSON object {"name", "errors", "warnings", "suppressed",
/// "diagnostics": [...]}.
std::string lint_json(const LintResult& result, const std::string& name);

}  // namespace fsim::svm::analysis
