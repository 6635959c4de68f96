// Connection-event traces: record, serialize, replay.
//
// A trace is the reproducibility artifact of a blocking experiment: the
// ordered list of connect/disconnect events, each connect carrying the full
// multicast request. Traces round-trip through a line-oriented CSV so a
// workload observed once (from the random generators, from an example app,
// from a bug report) can be replayed bit-identically against any switch
// implementation or geometry -- the foundation for regression fixtures.
//
// CSV schema, one event per line:
//   connect,<key>,<in_port>,<in_lane>,<p:l|p:l|...>
//   disconnect,<key>
// Keys are trace-local labels chosen by the recorder.
//
// Serialized traces open with a version header, `# wdm-trace/1`. The parser
// skips any `#` comment line, accepts headerless legacy files, and rejects a
// wdm-trace header naming a version it does not understand.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/blocking_sim.h"

namespace wdm {

struct TraceEvent {
  enum class Type { kConnect, kDisconnect };
  Type type = Type::kConnect;
  std::uint64_t key = 0;
  MulticastRequest request;  // meaningful for kConnect only

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class TraceRecorder {
 public:
  /// Record a connect attempt (call regardless of admission so replays see
  /// the same offered load; the replay decides admission itself).
  void on_connect(std::uint64_t key, const MulticastRequest& request);
  void on_disconnect(std::uint64_t key);

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  /// Serialize with the `# wdm-trace/1` version header first.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::vector<TraceEvent> events_;
};

/// Parse a trace CSV; throws std::invalid_argument with a line number on any
/// malformed record.
[[nodiscard]] std::vector<TraceEvent> parse_trace_csv(const std::string& csv);

struct ReplayResult {
  std::size_t connects = 0;
  std::size_t admitted = 0;
  std::size_t blocked = 0;        // admissible but unroutable
  std::size_t inadmissible = 0;   // endpoint busy / shape illegal here
  std::size_t disconnects = 0;
  std::size_t unmatched_disconnects = 0;  // key unknown or was not admitted

  friend bool operator==(const ReplayResult&, const ReplayResult&) = default;
  [[nodiscard]] std::string to_string() const;
};

/// Replay a trace against any switch implementation exposing the shared
/// connection API (MultistageSwitch, FabricSwitch, ClosFabricSwitch,
/// FiveStageSwitch, ConverterPoolSwitch). Disconnects apply only to keys
/// whose connect was admitted here.
template <typename Switch>
[[nodiscard]] ReplayResult replay_trace(Switch& sw,
                                        const std::vector<TraceEvent>& events) {
  ReplayResult result;
  std::map<std::uint64_t, ConnectionId> live;
  for (const TraceEvent& event : events) {
    if (event.type == TraceEvent::Type::kConnect) {
      ++result.connects;
      if (sw.check_admissible(event.request)) {
        ++result.inadmissible;
        continue;
      }
      if (const auto id = sw.try_connect(event.request)) {
        ++result.admitted;
        live[event.key] = *id;
      } else {
        ++result.blocked;
      }
    } else {
      ++result.disconnects;
      const auto it = live.find(event.key);
      if (it == live.end()) {
        ++result.unmatched_disconnects;
        continue;
      }
      sw.disconnect(it->second);
      live.erase(it);
    }
  }
  return result;
}

/// Generate a reproducible random churn trace (the dynamic-sim workload,
/// captured instead of applied): runs the churn against a scratch switch of
/// the given geometry so every recorded connect was admissible then. With
/// config.repack the scratch switch repacks on block like run_dynamic_sim,
/// so the trace offers exactly the simulator's load; it records the offered
/// connects and departures, not the migrations, so a replay re-decides
/// admission (a replay without repack blocks where the recording repacked).
[[nodiscard]] std::vector<TraceEvent> record_random_workload(
    const ClosParams& params, Construction construction,
    MulticastModel network_model, const SimConfig& config);

}  // namespace wdm
