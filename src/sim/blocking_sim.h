// Dynamic blocking simulation on three-stage networks.
//
// The paper's nonblocking claims (Theorems 1-2) are *worst case over all
// request/release sequences* under the limited-spread routing strategy. We
// probe them empirically from two directions:
//   * run_dynamic_sim: random admissible arrivals interleaved with random
//     departures at a configurable load; any observed block at m >= the
//     theorem bound would falsify the theorem (none should occur), while
//     for m well below the bound blocks should appear. Each step is one
//     churn_step (sim/churn_step.h), the step the engine's ChurnDriver,
//     trace capture and the witness search take too.
//   * saturation_attack: a structured adversary shaped like the theorems'
//     worst case -- fill the challenge input module's other wavelengths and
//     spray middle-stage occupancy from other modules, then issue a
//     full-spread challenge.
#pragma once

#include <cstdint>
#include <string>

#include "multistage/builder.h"
#include "sim/request.h"
#include "util/rng.h"

namespace wdm {

struct SimConfig {
  std::size_t steps = 2000;
  /// Probability a step attempts an arrival (otherwise a departure).
  double arrival_fraction = 0.65;
  FanoutRange fanout = {};
  std::uint64_t seed = 0x5EED;
  /// Run network.self_check() every this many steps (0 = never).
  std::size_t self_check_every = 0;
  /// Let blocked requests be admitted by migrating standing sessions
  /// (rearrangeable mode, DESIGN.md §3.12): the sim attaches a default-policy
  /// repack engine unless the caller already enabled one. Arrivals go through
  /// MultistageSwitch::connect_with_repack, which without a repack engine is
  /// try_connect -- identical decisions, counters, and SimStats.
  bool repack = false;
};

struct SimStats {
  std::size_t attempts = 0;    // admissible requests offered to the router
  std::size_t admitted = 0;
  std::size_t blocked = 0;     // router found no route (middle-stage block)
  std::size_t departures = 0;
  std::size_t max_concurrent = 0;
  std::size_t steps = 0;
  /// Sum over steps of the live connection count (for mean utilization).
  std::size_t active_connection_steps = 0;
  /// Sum of conversions_in_route over admitted connections.
  std::size_t conversions = 0;
  /// Admissions that needed at least one migration (zero unless a repack
  /// engine is attached, preserving SimStats equality for classic runs).
  std::size_t repacked_admits = 0;
  /// Standing sessions migrated across all repacked admissions.
  std::size_t repack_moves = 0;

  [[nodiscard]] double blocking_probability() const {
    return attempts == 0 ? 0.0 : static_cast<double>(blocked) /
                                     static_cast<double>(attempts);
  }
  /// Wilson 95% confidence interval on the blocking probability.
  [[nodiscard]] std::pair<double, double> blocking_ci95() const;
  /// Mean live connections per step divided by capacity (N*k input
  /// wavelengths); pass the network's N*k.
  [[nodiscard]] double mean_utilization(std::size_t capacity) const {
    return steps == 0 || capacity == 0
               ? 0.0
               : static_cast<double>(active_connection_steps) /
                     (static_cast<double>(steps) * static_cast<double>(capacity));
  }
  /// Mean wavelength conversions per admitted connection.
  [[nodiscard]] double mean_conversions() const {
    return admitted == 0 ? 0.0 : static_cast<double>(conversions) /
                                     static_cast<double>(admitted);
  }
  SimStats& operator+=(const SimStats& rhs);
  /// Field-by-field equality: the bit-identical-determinism check used by
  /// the concurrent engine ("same counters at any thread count").
  friend bool operator==(const SimStats&, const SimStats&) = default;
  [[nodiscard]] std::string to_string() const;
};

/// Drive `sw` with random admissible arrivals/departures.
[[nodiscard]] SimStats run_dynamic_sim(MultistageSwitch& sw, const SimConfig& config);

struct AttackResult {
  bool challenge_blocked = false;
  /// Middle modules unusable for the challenge at the moment it was issued.
  std::size_t unavailable_middles = 0;
  std::size_t filler_connections = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Structured adversary following the Theorem 1/2 worst-case shape: occupy
/// the other n*k - 1 input wavelengths of the challenge's input module with
/// spread-heavy connections, then issue a full-fanout challenge from the
/// remaining wavelength. Randomized by `rng`; leaves the network loaded
/// (callers own cleanup or discard the switch).
[[nodiscard]] AttackResult saturation_attack(MultistageSwitch& sw, Rng& rng);

}  // namespace wdm
