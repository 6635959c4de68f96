#include "util/rng.h"

#include <cmath>
#include <stdexcept>

namespace wdm {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state; splitmix64 cannot produce
  // four zero outputs in a row, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64() {
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

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::next_below: bound must be > 0");
  // Lemire-style rejection: retry while in the biased zone.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::next_double() {
  // 53 high-quality mantissa bits.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) { return next_double() < p; }

Rng Rng::split(std::uint64_t index) const {
  // Mix the parent seed with the child index through splitmix64.
  std::uint64_t mix = seed_ ^ (0xA02BDBF7BB3C0A7ull * (index + 1));
  return Rng{splitmix64(mix)};
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t population,
                                                         std::size_t count) {
  if (count > population) {
    throw std::invalid_argument("Rng::sample_without_replacement: count > population");
  }
  std::vector<std::size_t> pool(population);
  for (std::size_t i = 0; i < population; ++i) pool[i] = i;
  // Partial Fisher-Yates: the first `count` slots become the sample.
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(next_below(population - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

double exponential(Rng& rng, double mean) {
  double u = rng.next_double();
  if (u <= 0.0) u = 1e-12;
  return -mean * std::log(u);
}

}  // namespace wdm
