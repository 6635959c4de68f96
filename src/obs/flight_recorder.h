// Per-shard flight recorder: the last N engine ops, always on, dumpable.
//
// When a churn invariant trips ("live session rejected as stale",
// self_check corruption), the stack trace says *where* it died but not *what
// led up to it*. The flight recorder keeps exactly that: a fixed-size ring
// of the most recent engine operations on each shard -- op kind, session id,
// outcome, and a timestamp-free monotonic tick (the shard's op ordinal, so
// dumps from deterministic runs are themselves deterministic and diffable).
//
// The design is the trace_span thread-ring transplanted to the engine: a
// bounded vector that wraps by overwriting the oldest record, with every
// overwrite counted as a drop (docs stay honest about what the window lost).
// Unlike span tracing it is always armed -- recording is one uncontended
// mutex acquisition plus a struct copy, cheap enough to ride the shard's
// claim-serialized write path -- and carries engine semantics instead of
// wall-clock timing.
//
// Writers are the shard-claim holders (one at a time by construction);
// dump() may run from any thread at any moment, so an internal mutex
// arbitrates the ring itself. ChurnDriver and ShardedEngine::self_check dump
// every shard's ring to stderr before throwing on an invariant violation,
// and run_benches honors WDM_FLIGHT_DUMP=<path> so CI can upload the dump as
// a workflow artifact.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "core/connection.h"

namespace wdm::obs {

enum class EngineOp : std::uint8_t {
  kConnect,
  kDisconnect,
  kGrow,
  kRepack,  // a connect admitted by migrating standing sessions (repack.h)
  // Cross-shard grow (two-phase migration, DESIGN.md §3.13): the target
  // shard records kMigrateIn (admitted / blocked / rolled back as kStale),
  // the source shard records kMigrateOut (admitted = original released,
  // kStale = the session died before the commit phase).
  kMigrateIn,
  kMigrateOut,
};

enum class EngineOpOutcome : std::uint8_t {
  kAdmitted,
  kBlocked,
  kStale,        // generation-tagged id rejected
  kGrown,
  kGrowBlocked,  // grow rolled back (original route reinstalled)
};

[[nodiscard]] const char* engine_op_name(EngineOp op);
[[nodiscard]] const char* engine_op_outcome_name(EngineOpOutcome outcome);

/// One recorded engine operation.
struct FlightRecord {
  /// The shard's op ordinal (1-based, monotone per ring) -- deliberately not
  /// a clock, so identical deterministic runs produce identical dumps.
  std::uint64_t tick = 0;
  /// The session the op touched (the new id for admissions, the probed id
  /// for disconnect/grow).
  ConnectionId session = 0;
  EngineOp op = EngineOp::kConnect;
  EngineOpOutcome outcome = EngineOpOutcome::kAdmitted;
  /// Op-specific annotation: chain length (sessions migrated) for kRepack,
  /// else 0.
  std::uint32_t detail = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit FlightRecorder(std::uint32_t shard,
                          std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] std::uint32_t shard() const { return shard_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Record one op. Callers are the shard's serialized writers; the internal
  /// mutex only exists so dump() can run concurrently.
  void record(EngineOp op, EngineOpOutcome outcome, ConnectionId session,
              std::uint32_t detail = 0);

  /// Records overwritten by ring wrap since construction / clear().
  [[nodiscard]] std::uint64_t dropped() const;
  /// Total ops ever recorded (== the last record's tick).
  [[nodiscard]] std::uint64_t ticks() const;

  /// A coherent copy of the ring, oldest record first.
  struct Dump {
    std::uint32_t shard = 0;
    std::uint64_t dropped = 0;
    std::uint64_t ticks = 0;
    std::vector<FlightRecord> records;
  };
  [[nodiscard]] Dump dump() const;

  void clear();

  /// Terminal rendering of a dump (one line per record plus a drop summary).
  static void print(const Dump& dump, std::ostream& os);

 private:
  const std::uint32_t shard_;
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<FlightRecord> records_;  // grows to capacity_, then wraps
  std::size_t oldest_ = 0;             // overwrite cursor once full
  std::uint64_t dropped_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace wdm::obs
