#include "util/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "util/status.hpp"

namespace fsim::util {

namespace {

// Digits only (decimal, or 0x/0 prefixed) within 0..2^64-1: strtoull alone
// would skip blanks and negate a leading '-'.
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
    return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text.c_str(), &end, 0);
  return end != nullptr && *end == '\0' && errno != ERANGE;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    auto eq = arg.find('=');
    if (eq != std::string::npos)
      opts_[arg.substr(0, eq)] = arg.substr(eq + 1);
    else
      opts_[arg] = "true";
  }
}

bool Cli::has(const std::string& name) const {
  queried_[name] = true;
  return opts_.count(name) > 0;
}

std::string Cli::str(const std::string& name, const std::string& fallback) const {
  queried_[name] = true;
  auto it = opts_.find(name);
  return it == opts_.end() ? fallback : it->second;
}

bool Cli::parse_int(const std::string& text, std::int64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(text.c_str(), &end, 0);
  return !text.empty() && end != nullptr && *end == '\0' && errno != ERANGE;
}

std::uint64_t Cli::u64(const std::string& name, std::uint64_t fallback) const {
  queried_[name] = true;
  auto it = opts_.find(name);
  if (it == opts_.end()) return fallback;
  std::uint64_t v = 0;
  if (!parse_u64(it->second, v))
    throw SetupError("option --" + name +
                     " expects an integer from 0 to 18446744073709551615, got '" +
                     it->second + "'");
  return v;
}

std::int64_t Cli::num(const std::string& name, std::int64_t fallback) const {
  queried_[name] = true;
  auto it = opts_.find(name);
  if (it == opts_.end()) return fallback;
  std::int64_t v = 0;
  if (!parse_int(it->second, v))
    throw SetupError("option --" + name + " expects an integer, got '" + it->second + "'");
  return v;
}

double Cli::real(const std::string& name, double fallback) const {
  queried_[name] = true;
  auto it = opts_.find(name);
  if (it == opts_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == nullptr || *end != '\0')
    throw SetupError("option --" + name + " expects a number, got '" + it->second + "'");
  return v;
}

bool Cli::flag(const std::string& name, bool fallback) const {
  queried_[name] = true;
  auto it = opts_.find(name);
  if (it == opts_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

int Cli::count(const std::string& name, int fallback, int min) const {
  const std::int64_t v = num(name, fallback);
  if (v < min || v > std::numeric_limits<int>::max())
    throw SetupError("option --" + name + " expects an integer from " +
                     std::to_string(min) + " to " +
                     std::to_string(std::numeric_limits<int>::max()) +
                     ", got " + std::to_string(v));
  return static_cast<int>(v);
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : opts_)
    if (!queried_.count(name)) out.push_back(name);
  return out;
}

void Cli::reject_unused(bool takes_files) const {
  const std::vector<std::string> names = unused();
  if (!names.empty()) throw SetupError("unknown option --" + names.front());
  if (!takes_files && !positional_.empty())
    throw SetupError("unexpected argument '" + positional_.front() + "'");
}

}  // namespace fsim::util
