// Execution-engine selection for the SVM.
//
// Two engines share one contract — bit-identical architectural semantics at
// every instruction-quantum boundary:
//  * kInterp:   the legacy fetch -> decode -> switch interpreter (with a
//               per-text-snapshot decode cache, see compiled.hpp);
//  * kThreaded: pre-decoded threaded code over the same compiled stream,
//               dispatched via computed goto where the toolchain supports
//               it (FSIM_HAVE_COMPUTED_GOTO) and a switch otherwise.
// Campaign aggregates must digest identically under either engine; the
// engine tag is therefore carried for reporting but never enters result
// digests or checkpoint identity.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace fsim::svm::exec {

enum class EngineKind : std::uint8_t {
  kInterp,    // legacy interpreter loop
  kThreaded,  // pre-decoded threaded code (default)
};

/// "interp" | "threaded".
constexpr const char* engine_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kInterp:
      return "interp";
    case EngineKind::kThreaded:
      return "threaded";
  }
  return "threaded";
}

/// Parse an --engine value; nullopt on anything unknown.
inline std::optional<EngineKind> parse_engine_kind(
    std::string_view text) noexcept {
  if (text == "interp") return EngineKind::kInterp;
  if (text == "threaded") return EngineKind::kThreaded;
  return std::nullopt;
}

}  // namespace fsim::svm::exec
