// Timing helpers for session_bench: a steady-clock reader, a latency series
// summarised per time slice, and the fixed ALU kernel used as a host-speed
// reference.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sessionbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Keeps the compiler from discarding a value whose computation is timed.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Linear-interpolated quantile (type 7) of `values`; 0 if empty.
template <typename T>
double quantile_of(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), mid, values.end());
  const double low = *mid;
  if (lo + 1 >= values.size()) return low;
  const double high = *std::min_element(mid + 1, values.end());
  return low + (pos - static_cast<double>(lo)) * (high - low);
}

/// A latency series summarised per time slice of a run: each slice keeps
/// its own p50 and p90, and the run reports the median over slices, so a
/// few slices in which other tenants of a shared host stalled the CPU do
/// not move the result.
class SlicedSeries {
 public:
  void add(double value) {
    current_.push_back(static_cast<float>(value));
    ++count_;
  }
  void close_slice() {
    if (current_.empty()) return;
    p50_.push_back(quantile_of(current_, 0.5));
    p90_.push_back(quantile_of(current_, 0.9));
    current_.clear();
  }
  [[nodiscard]] double p50() const { return quantile_of(p50_, 0.5); }
  [[nodiscard]] double p90() const { return quantile_of(p90_, 0.5); }
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  std::vector<float> current_;
  std::vector<double> p50_, p90_;
  std::uint64_t count_ = 0;
};

/// Median cost of an empty timed region: two back-to-back clock reads.
inline double measure_clock_ns() {
  std::vector<float> samples(200000);
  for (float& sample : samples) {
    const std::int64_t t0 = now_ns();
    const std::int64_t t1 = now_ns();
    sample = static_cast<float>(t1 - t0);
  }
  return quantile_of(std::move(samples), 0.5);
}

/// Median time of a fixed dependent multiply/xor-shift chain. It touches no
/// memory, so it moves only with the host's clock speed and CPU share.
inline double measure_calib_ns() {
  std::vector<float> samples;
  for (int rep = 0; rep < 15; ++rep) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(rep);
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < (1 << 18); ++i) {
      x ^= x >> 29;
      x *= 0xBF58476D1CE4E5B9ull;
    }
    keep(x);
    samples.push_back(static_cast<float>(now_ns() - t0));
  }
  return quantile_of(std::move(samples), 0.5);
}

}  // namespace sessionbench
