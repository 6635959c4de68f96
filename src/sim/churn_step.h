// One step of a seeded churn stream: the arrive / grow / depart op with
// which run_dynamic_sim, the engine's ChurnDriver, trace capture and the
// witness search drive a three-stage network (draw order: DESIGN.md §3.7).
// The target adapts the ops: sw() is the switch they act on,
// connect(request) returns the new id or nullopt, disconnect(id) tears a
// live session down, and grow(id, destination) returns {grown, new id};
// targets without grow() ignore grow_fraction.
#pragma once

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "multistage/builder.h"
#include "repack/repack.h"
#include "sim/blocking_sim.h"
#include "sim/request.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace wdm {

/// A stream's op probabilities (a fraction of 0 draws nothing).
struct ChurnMix {
  double arrival_fraction = 0.65;
  double grow_fraction = 0.0;
  double stale_probe_fraction = 0.0;
  FanoutRange fanout = {};
  /// Arrivals' input ports (null = all): the engine's shard ownership.
  const std::vector<std::size_t>* source_ports = nullptr;
};

/// A stream's outcome tally.
struct ChurnTally {
  SimStats sim;  // attempts/admitted/blocked/departures/steps/...
  std::size_t grow_attempts = 0;
  std::size_t grows = 0;         // sessions that gained a destination
  std::size_t grow_blocked = 0;  // no candidate or middle-stage block
  std::size_t stale_probes = 0;
  std::size_t stale_rejected = 0;
  /// Stale ids the network *accepted* -- any nonzero value is a bug.
  std::size_t stale_accepted = 0;

  friend bool operator==(const ChurnTally&, const ChurnTally&) = default;
};

/// A stream's rng, live ids, tally and the last kStaleRing ids it retired.
struct ChurnStream {
  static constexpr std::size_t kStaleRing = 32;
  explicit ChurnStream(Rng seeded) : rng(seeded) {}
  Rng rng;
  std::vector<ConnectionId> live;
  std::array<ConnectionId, kStaleRing> stale{};
  std::size_t retired = 0;
  ChurnTally tally;

  void retire(ConnectionId id) { stale[retired++ % kStaleRing] = id; }
};

/// Instruments of the step's probes and grow draws; targets instrument their ops.
struct ChurnInstruments {
  Counter* stale_rejected = nullptr;
  Counter* grow_blocked = nullptr;  // grows with no free destination
  Histogram* grow_candidates = nullptr;
};

struct ChurnOutcome {
  enum class Op { kNoRequest, kAdmitted, kBlocked, kDeparted, kGrow };
  Op op = Op::kNoRequest;  // kNoRequest: no admissible request at this load
  ConnectionId id = 0;  // kAdmitted: the new id; kDeparted, kGrow: the victim
  std::optional<MulticastRequest> request;  // kAdmitted, kBlocked: offered
};

/// A bare switch (connect_with_repack is try_connect without a repack engine).
struct SwitchChurnTarget {
  MultistageSwitch& target_switch;

  MultistageSwitch& sw() { return target_switch; }
  std::optional<ConnectionId> connect(const MulticastRequest& request) {
    return target_switch.connect_with_repack(request);
  }
  void disconnect(ConnectionId id) { target_switch.disconnect(id); }
};

template <typename Target>
ChurnOutcome churn_step(Target& target, ChurnStream& stream, const ChurnMix& mix,
                        const ChurnInstruments& instruments = {}) {
  constexpr bool kCanGrow =
      requires(Target& t) { t.grow(ConnectionId{}, WavelengthEndpoint{}); };
  MultistageSwitch& sw = target.sw();
  ThreeStageNetwork& network = sw.network();
  Rng& rng = stream.rng;
  std::vector<ConnectionId>& live = stream.live;
  ChurnTally& tally = stream.tally;
  SimStats& stats = tally.sim;
  ChurnOutcome outcome;
  ++stats.steps;
  stats.active_connection_steps += live.size();

  if (mix.stale_probe_fraction > 0 && stream.retired != 0 &&
      rng.next_bool(mix.stale_probe_fraction)) {
    ++tally.stale_probes;
    const std::size_t ring = std::min(stream.retired, ChurnStream::kStaleRing);
    if (network.try_release(stream.stale[rng.next_below(ring)])) {
      ++tally.stale_accepted;  // corruption; surfaced by every caller's checks
    } else {
      ++tally.stale_rejected;
      if (auto* rejected = instruments.stale_rejected) rejected->add();
    }
  }

  if (live.empty() || rng.next_bool(mix.arrival_fraction)) {
    outcome.request = random_admissible_request(rng, network, mix.fanout, mix.source_ports);
    if (!outcome.request) return outcome;
    ++stats.attempts;
    const auto id = target.connect(*outcome.request);
    outcome.op = id ? ChurnOutcome::Op::kAdmitted : ChurnOutcome::Op::kBlocked;
    ++(id ? stats.admitted : stats.blocked);
    if (!id) return outcome;
    outcome.id = *id;
    stats.conversions += conversions_in_route(network.connections().at(*id));
    if (const repack::RepackEngine* repacker = sw.repack_engine()) {
      // Migrated sessions carry fresh ids; later victims must name live ones.
      const auto moved = repacker->last_moved();
      if (!moved.empty()) ++stats.repacked_admits;
      stats.repack_moves += moved.size();
      for (const auto& [old_id, new_id] : moved) {
        std::replace(live.begin(), live.end(), old_id, new_id);
        stream.retire(old_id);
      }
    }
    live.push_back(*id);
    stats.max_concurrent = std::max(stats.max_concurrent, live.size());
    return outcome;
  }

  const bool grow = kCanGrow && mix.grow_fraction > 0 && rng.next_bool(mix.grow_fraction);
  const std::size_t victim = rng.next_below(live.size());
  outcome.id = live[victim];
  if constexpr (kCanGrow) {
    if (grow) {
      outcome.op = ChurnOutcome::Op::kGrow;
      ++tally.grow_attempts;
      const ThreeStageNetwork::RecordView session = network.connections().at(outcome.id);
      const auto outputs = session.outputs();
      // One wavelength per output port: only ports the session does not reach
      // yet, on the lane the model pins (MSW: the source's, MSDW: the
      // destinations'); MAW draws a free lane per port.
      std::optional<Wavelength> lane;
      if (network.network_model() == MulticastModel::kMSW) lane = session.input().lane;
      if (network.network_model() == MulticastModel::kMSDW) lane = outputs[0].lane;
      const auto candidates = free_destinations(rng, network, lane, [&](std::size_t port) {
        return std::ranges::any_of(outputs, [port](auto out) { return out.port == port; });
      });
      if (auto* histogram = instruments.grow_candidates) histogram->record(candidates.size());
      if (candidates.empty()) {
        ++tally.grow_blocked;
        if (auto* blocked = instruments.grow_blocked) blocked->add();
        return outcome;
      }
      const auto [grown, renewed] =
          target.grow(outcome.id, candidates[rng.next_below(candidates.size())]);
      ++(grown ? tally.grows : tally.grow_blocked);
      stream.retire(outcome.id);
      live[victim] = renewed;
      return outcome;
    }
  }
  outcome.op = ChurnOutcome::Op::kDeparted;
  target.disconnect(outcome.id);
  stream.retire(outcome.id);
  live[victim] = live.back();
  live.pop_back();
  ++stats.departures;
  return outcome;
}

}  // namespace wdm
