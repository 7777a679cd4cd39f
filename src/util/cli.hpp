// Minimal command-line option parsing shared by fsim, bench and example
// binaries.
//
// Options take the `--name=value` form or the bare boolean `--flag` form;
// every other argument is positional, so `--quiet ck.json` never reads
// `ck.json` as the value of `--quiet`. Malformed numbers and out-of-range
// counts raise SetupError, and reject_unused() refuses options nobody read.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fsim::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string str(const std::string& name, const std::string& fallback) const;
  std::int64_t num(const std::string& name, std::int64_t fallback) const;
  double real(const std::string& name, double fallback) const;
  /// A seed: an unsigned 64-bit integer, the whole range and nothing else.
  std::uint64_t u64(const std::string& name, std::uint64_t fallback) const;
  /// Whole-string integer parse (decimal, or 0x/0 prefixed) that fails on
  /// overflow: the check num() applies, for callers splitting a compound
  /// value such as `--shard=i/N`.
  static bool parse_int(const std::string& text, std::int64_t& out);
  bool flag(const std::string& name, bool fallback = false) const;
  /// --name=N for a count from `min` to INT_MAX (`fallback` when absent).
  /// Every count a binary reads goes through here, so a value beyond the
  /// int range is refused, not wrapped.
  int count(const std::string& name, int fallback, int min = 1) const;

  /// Positional (non-option) arguments, in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// Names seen on the command line but never queried.
  std::vector<std::string> unused() const;
  /// Refuse every option nobody read: a typo, or a flag the path taken
  /// would silently ignore. Binaries that take no files also refuse stray
  /// positional arguments. Call after all lookups, before any work.
  void reject_unused(bool takes_files = false) const;

 private:
  std::map<std::string, std::string> opts_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace fsim::util
