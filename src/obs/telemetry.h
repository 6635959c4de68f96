// Time-series telemetry: periodic engine health samples as JSON lines.
//
// A TelemetrySampler owns one background thread that, every `interval`,
// reads every shard's seqlock-published EngineHealthSnapshot (zero mutex
// acquisition -- the engine never notices it is being watched) and folds the
// result, together with a few registry instruments, into one line of the
// versioned `wdm-telemetry/1` schema (docs/BENCHMARKS.md). One line == one
// sample:
//
//   {"schema":"wdm-telemetry/1","sample":7,
//    "geometry":{"m":5,"r":4,"bound_m":5},
//    "totals":{"sessions":..,"busy_middle_lanes":..,"connects":..,...},
//    "margin":0,"nonblocking":true,"failed_middles":0,
//    "shards":[{"shard":0,...,"occupancy":[2,0,3,1,2]},...],
//    "metrics":{"sim_connect_p50_ns":..,"sim_connect_p99_ns":..,
//               "engine_connects":..,...}}
//
// `occupancy` is the per-middle-module busy-lane heatmap row (index j ->
// busy output lanes on middle module j), `margin` the fault-degraded
// Theorem-1/2 margin, and `totals` the shard-summed deterministic tallies --
// after the engine quiesces, the final sample's totals equal the run's
// ChurnStats exactly (enforced by run_benches --telemetry and ctest).
//
// Emission is dependency-free RFC 8259 JSON (keys fixed, values numeric or
// boolean) and parses with util/json_lite; `sample` indices are the line
// numbers, so any valid timeline is gap-free and strictly monotone.
//
// stop() always takes one final sample after joining the thread, so even a
// run shorter than `interval` yields a non-empty timeline whose last sample
// reflects the quiesced engine. sample_now() is the synchronous variant for
// callers that want sampling at their own commit points instead of (or in
// addition to) the timer.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace wdm::engine {
class ShardedEngine;
}  // namespace wdm::engine

namespace wdm::obs {

inline constexpr std::string_view kTelemetrySchema = "wdm-telemetry/1";

struct TelemetryConfig {
  /// Background sampling period. The sampler reads ~shards * (17 + m)
  /// relaxed-atomic words per sample; even 1 ms periods cost the engine
  /// nothing but occasional seqlock retries.
  std::chrono::milliseconds interval{25};
  /// Fold registry instruments (sim.connect percentiles, engine.* counters)
  /// into each sample's "metrics" object. Off for tests that want samples to
  /// be a pure function of engine state.
  bool include_metrics = true;
};

class TelemetrySampler {
 public:
  explicit TelemetrySampler(const engine::ShardedEngine& engine,
                            TelemetryConfig config = {});
  /// Stops the background thread (without a final sample -- call stop()
  /// yourself for the quiesced-engine closing sample).
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Launch the background thread. No-op if already running.
  void start();
  /// Join the background thread, then take one final sample. Idempotent;
  /// safe without a prior start() (the final sample is still taken).
  void stop();

  /// Take one sample synchronously from the calling thread; returns its
  /// sample index. Usable before start(), between samples, or after stop().
  std::size_t sample_now();

  /// The timeline so far, one JSON line per sample, oldest first.
  [[nodiscard]] std::vector<std::string> lines() const;
  [[nodiscard]] std::size_t sample_count() const;

  /// Write the timeline to `os`, newline-terminated (the .jsonl format).
  void write(std::ostream& os) const;
  /// write() to `path`; false (with no partial file guarantee) on I/O error.
  bool write_file(const std::string& path) const;

 private:
  void run_loop();
  /// Build one sample line and append it under lines_mutex_.
  std::size_t take_sample();

  const engine::ShardedEngine* engine_;
  TelemetryConfig config_;

  mutable std::mutex lines_mutex_;
  std::vector<std::string> lines_;

  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace wdm::obs
