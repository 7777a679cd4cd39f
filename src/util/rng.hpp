// Deterministic pseudo-random number generation for fault-injection campaigns.
//
// Every experiment in this repository is replayable from a 64-bit seed: the
// campaign driver derives one child seed per injection run, and every random
// choice (target bit, target process, injection time, message byte offset)
// flows from that child stream.  We implement xoshiro256** (public domain,
// Blackman & Vigna) seeded through splitmix64 rather than relying on
// std::mt19937 so that results are bit-identical across standard libraries.
#pragma once

#include <array>
#include <cstdint>

namespace fsim::util {

/// splitmix64 step; used for seeding and for cheap hash-derived child seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with convenience helpers for ranged draws.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& w : state_) w = splitmix64(sm);
  }

  bool operator==(const Rng&) const = default;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform draw in [0, bound). bound == 0 returns 0.
  std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Lemire's nearly-divisionless method, with rejection for exactness.
    const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform draw in the closed interval [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Derive an independent child generator; `salt` distinguishes siblings.
  Rng child(std::uint64_t salt) noexcept {
    std::uint64_t mix = (*this)() ^ (salt * 0x9e3779b97f4a7c15ULL);
    return Rng{splitmix64(mix)};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// Stateless hash of an arbitrary list of 64-bit words into one seed.
/// Used to derive per-run seeds from (campaign seed, region, run index).
inline std::uint64_t hash_seed(std::initializer_list<std::uint64_t> words) noexcept {
  std::uint64_t acc = 0x243f6a8885a308d3ULL;
  for (std::uint64_t w : words) {
    acc ^= w + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2);
    acc = splitmix64(acc);
  }
  return acc;
}

}  // namespace fsim::util
