// Multithreaded connect/disconnect/grow churn over a ShardedEngine, with
// bit-identical results at any thread count.
//
// The driver turns the engine's shard decomposition into a deterministic
// concurrent workload:
//
//   * Each shard carries its own op stream: a shard-resident Rng
//     (Rng(seed).split(shard)) drives every decision -- arrival vs departure
//     vs grow, request shape, victim choice, stale-id probes -- and arrivals
//     draw their source port only from the shard's owned_ports(). The stream
//     is therefore a pure function of (seed, shard, ops executed so far).
//     A tick is one churn_step (sim/churn_step.h), the same step
//     run_dynamic_sim takes, made against the shard's connect_locked /
//     disconnect_locked / grow_locked; its live-id pool follows the
//     sessions a repack-enabled engine migrates to fresh ids.
//
//   * Work is cut into fixed-size batches scheduled round-robin across
//     shards and handed out by one atomic cursor. A batch carries an op
//     *count*, not op content -- content comes from the shard-resident
//     stream -- and runs under the shard's single-writer claim, so each
//     shard's stream advances exactly as in a single-threaded run no matter
//     which thread executes which batch or in which order batches land.
//     The only choice is who runs a batch: its submitter, inline under the
//     claim (`workers` submitters), or -- in queued mode -- a ShardExecutor
//     the run attaches, fed by one submitter.
//
// Aggregation merges per-shard stats in ascending shard order, so ChurnStats
// -- down to every counter -- is bit-identical for 1, 2, or 64 workers and
// any queue depth (enforced by tests/engine_test.cpp, executor_test.cpp and
// bench_churn). run_serial() executes the same streams with no claims,
// batches, or threads, as an independent replay reference.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "engine/sharded_engine.h"
#include "sim/churn_step.h"
#include "util/thread_pool.h"

namespace wdm::engine {

struct ChurnConfig {
  /// Churn ops (ticks) each shard executes.
  std::size_t ops_per_shard = 2000;
  /// Ops per batch (the submission granularity).
  std::size_t batch = 64;
  /// Worker threads for run(); clamped to >= 1. The thread count must never
  /// change results -- that is the point.
  std::size_t workers = 4;
  /// Probability a tick attempts an arrival (otherwise departure/grow).
  double arrival_fraction = 0.6;
  /// Probability a non-arrival tick attempts a multicast grow.
  double grow_fraction = 0.25;
  /// Probability per tick of replaying a disposed connection id against the
  /// shard (must be cleanly rejected; counted in stale_probes/_rejected).
  double stale_probe_fraction = 0.05;
  FanoutRange fanout{1, 4};
  std::uint64_t seed = 0xC0FFEE;
  /// Deep-check a shard every this many of its ticks (0 = never).
  std::size_t self_check_every = 0;
  /// Queued submission mode (DESIGN.md §3.13): run() creates a ShardExecutor
  /// (`workers` draining workers, per-shard queues of `queue_depth`) and
  /// ships each batch into the owning shard's queue instead of running it
  /// inline under the shard's claim. Op content still comes from the
  /// shard-resident rng stream and each shard's batches execute under its
  /// claim, so ChurnStats stays bit-identical to the inline mode, to
  /// run_serial(), and to itself at any worker count or queue depth
  /// (enforced by tests/executor_test.cpp).
  bool queued = false;
  /// Per-shard submission queue capacity in queued mode (rounded up to a
  /// power of two; small values just surface backpressure earlier).
  std::size_t queue_depth = 1024;
};

/// One shard's outcome tally. Deterministic per (engine config, churn
/// config, shard) -- independent of worker count and batch interleaving.
using ShardChurnStats = ChurnTally;

struct ChurnStats {
  /// Shard-ordered merge of per_shard (shard 0 first -- fixed order, so the
  /// merge itself cannot introduce nondeterminism).
  ShardChurnStats total;
  std::vector<ShardChurnStats> per_shard;
  /// Driver-owned sessions still live at the end of the run.
  std::size_t leftover_sessions = 0;

  friend bool operator==(const ChurnStats&, const ChurnStats&) = default;
  [[nodiscard]] std::string to_string() const;
};

class ChurnDriver {
 public:
  ChurnDriver(ShardedEngine& engine, ChurnConfig config);

  [[nodiscard]] const ChurnConfig& config() const { return config_; }

  /// Multithreaded churn: the batch submitters run on `pool` (the overload
  /// without a pool uses default_pool()). Safe to call from inside a pool
  /// task: the nested parallel_for runs inline (see thread_pool.h).
  ChurnStats run(ThreadPool& pool);
  ChurnStats run();

  /// Single-threaded reference replay: the same per-shard op streams,
  /// executed shard 0..S-1 with no claims, batches, or threads. Produces
  /// bit-identical ChurnStats to run() on an identically-configured engine.
  /// No other thread may use the engine meanwhile.
  ChurnStats run_serial();

 private:
  /// Per-shard run state: the shard-resident stream plus the driver's
  /// session bookkeeping. Touched only under the shard's claim.
  struct Lane {
    Lane(ChurnDriver& owner, std::size_t shard_index, const ChurnConfig& config)
        : driver(&owner),
          shard(shard_index),
          stream{Rng(config.seed).split(shard_index)} {}

    ChurnDriver* const driver;
    const std::size_t shard;
    ChurnStream stream;  // live ids are the driver-owned sessions

    /// First exception a batch hit (read by run() after every batch has
    /// run). Later batches on the lane see it and stop advancing the stream.
    std::exception_ptr task_error;
  };

  std::vector<std::unique_ptr<Lane>> make_lanes();
  void tick(Lane& lane);
  ChurnStats merge(std::vector<std::unique_ptr<Lane>>& lanes) const;
  /// Batch body: `ops` ticks of lane `lane` (a Lane*), run by whoever holds
  /// the lane's shard claim (an executor task trampoline). Exceptions land
  /// in Lane::task_error, never escape.
  static void run_batch(void* lane, std::uint64_t ops);

  ShardedEngine* engine_;
  ChurnConfig config_;
};

}  // namespace wdm::engine
