// Connection restoration and degraded-capacity analysis.
//
// When hardware fails, two questions matter operationally:
//
//   1. What happens to the sessions that were riding the failed piece?
//      restore_connections() finds every active connection whose route
//      crosses a currently-failed component, tears them all down (freeing
//      whatever healthy capacity they held), and re-routes each through the
//      surviving fabric -- reporting restored vs. dropped. The pass is
//      deterministic (connections re-route in ascending id order).
//
//   2. How much nonblocking margin is left? A three-stage network with f
//      failed middle modules behaves exactly like a fresh network built
//      with m-f middles (the degradation-equivalence property, verified in
//      tests/faults_test.cpp), so the Theorem 1/2 bound applies verbatim at
//      the reduced size: degraded_capacity() reports the effective m, the
//      bound, and the remaining failure budget (`faults_to_bound`) before
//      the fabric drops below its proven-nonblocking provisioning.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_model.h"
#include "multistage/builder.h"
#include "multistage/nonblocking.h"

namespace wdm {

/// Outcome of one restoration pass.
struct RestorationReport {
  /// Connections whose route crossed a failed component.
  std::size_t affected = 0;
  /// Re-routed successfully: (old id, new id), ascending old id.
  std::vector<std::pair<ConnectionId, ConnectionId>> restored;
  /// Could not be re-routed; the request is returned so callers can retry
  /// later (e.g. after a repair).
  std::vector<std::pair<ConnectionId, MulticastRequest>> dropped;

  [[nodiscard]] std::string to_string() const;
};

/// Does this connection's route cross any currently-failed component?
[[nodiscard]] bool route_uses_faults(const ThreeStageNetwork& network,
                                     const ThreeStageNetwork::RecordView& connection,
                                     const FaultModel& faults);

/// Re-route every active connection stranded by the network's attached
/// fault model. No-op (empty report) when no fault model is attached or no
/// fault is active. Instrumented: counters faults.sessions_affected /
/// .sessions_restored / .sessions_dropped, timer faults.restore_connections
/// (the restoration latency), span "faults.restore".
RestorationReport restore_connections(MultistageSwitch& sw);

/// Theorem 1/2 margin of a fabric running with `failed_middles` middle
/// modules down.
struct DegradedCapacity {
  std::size_t provisioned_m = 0;   // middles built
  std::size_t failed_middles = 0;  // f
  std::size_t effective_m = 0;     // m - f (0 if f >= m)
  NonblockingBound bound;          // Theorem 1/2 for this geometry
  /// effective_m - bound.m: >= 0 means still provably nonblocking.
  std::ptrdiff_t margin = 0;
  bool nonblocking = false;
  /// Additional middle failures tolerable before margin goes negative.
  std::size_t faults_to_bound = 0;

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] DegradedCapacity degraded_capacity(const ClosParams& params,
                                                 Construction construction,
                                                 std::size_t failed_middles);

/// Convenience: read f from a live fault model.
[[nodiscard]] DegradedCapacity degraded_capacity(const ThreeStageNetwork& network,
                                                 const FaultModel& faults);

}  // namespace wdm
