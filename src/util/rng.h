// Deterministic, splittable pseudo-random number generation.
//
// The blocking simulations sweep many (network, load) points, optionally in
// parallel; every point must be reproducible from a single master seed no
// matter how tasks are scheduled. Rng is xoshiro256**, seeded through
// splitmix64 so that similar seeds still produce decorrelated streams, and
// Rng::split(i) derives an independent child stream for task i.
#pragma once

#include <cstdint>
#include <vector>

namespace wdm {

class Rng {
 public:
  /// Seed the generator. Any 64-bit value is acceptable (including 0).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound) without modulo bias. bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with success probability p.
  bool next_bool(double p = 0.5);

  /// Derive a statistically independent child generator for subtask `index`.
  [[nodiscard]] Rng split(std::uint64_t index) const;

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Sample `count` distinct values from [0, population) in uniform order.
  std::vector<std::size_t> sample_without_replacement(std::size_t population,
                                                      std::size_t count);

 private:
  std::uint64_t state_[4];
  std::uint64_t seed_;  // retained so split() can derive children
};

/// Exponentially distributed value with the given mean, by inverse CDF from
/// one next_double() draw (a draw of 0 reads as 1e-12, so the log is finite).
[[nodiscard]] double exponential(Rng& rng, double mean);

}  // namespace wdm
