#include "core/outcome.hpp"

#include "util/status.hpp"

namespace fsim::core {

Region parse_region(const std::string& name) {
  if (name == "regular") return Region::kRegularReg;
  if (name == "fp") return Region::kFpReg;
  if (name == "bss") return Region::kBss;
  if (name == "data") return Region::kData;
  if (name == "stack") return Region::kStack;
  if (name == "text") return Region::kText;
  if (name == "heap") return Region::kHeap;
  if (name == "message") return Region::kMessage;
  throw util::SetupError("unknown region '" + name +
                         "' (regular|fp|bss|data|stack|text|heap|message)");
}

}  // namespace fsim::core
