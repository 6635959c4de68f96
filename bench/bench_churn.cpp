// Concurrent session churn on the sharded engine: scaling AND determinism.
//
// The engine's pitch is "take the single-threaded fabric and scale the
// session plane across cores without giving up reproducibility". This bench
// measures both halves at once: the same ChurnConfig runs at 1, 2, 4, and 8
// workers (each on a dedicated pool), and every row is checked bit-identical
// against the single-threaded reference -- counters, per-shard tallies,
// leftover sessions. A throughput column shows what the sharding buys on
// multi-core hosts; on a 1-core container the speedup is ~1x by design and
// only the determinism columns carry signal.
//
// WDM_TELEMETRY=<path> in the environment attaches a TelemetrySampler to the
// 4-worker run and writes its wdm-telemetry/1 timeline there as JSON lines.
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "engine/churn_driver.h"
#include "engine/sharded_engine.h"
#include "obs/telemetry.h"
#include "util/table.h"

using namespace wdm;
using namespace wdm::engine;

namespace {

EngineConfig engine_config() {
  EngineConfig config;
  config.params = {4, 4, 5, 2};  // Theorem-1 design point per shard
  config.shards = 8;
  return config;
}

ChurnConfig churn_config(std::size_t workers) {
  ChurnConfig config;
  config.ops_per_shard = 20000;
  config.batch = 64;
  config.workers = workers;
  return config;
}

}  // namespace

int main() {
  print_banner(std::cout,
               "Sharded engine churn: throughput vs workers, bit-identical");

  const EngineConfig config = engine_config();
  std::cout << "\nEngine: " << config.shards << " shards x "
            << config.params.to_string() << "\nWorkload: "
            << churn_config(1).ops_per_shard << " ops/shard (connect/"
            << "disconnect/grow mix), identical seeds for every row.\n\n";

  // Single-threaded reference replay: no pool, no queues.
  ShardedEngine reference_engine(config);
  ChurnDriver reference_driver(reference_engine, churn_config(1));
  const auto serial_start = std::chrono::steady_clock::now();
  const ChurnStats reference = reference_driver.run_serial();
  const double serial_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - serial_start)
          .count();
  const double total_ops = static_cast<double>(reference.total.sim.steps);

  bool ok = reference.total.stale_accepted == 0;
  Table table({"workers", "wall ms", "ops/s", "speedup", "admitted", "grows",
               "stale rej", "identical"});
  table.add("serial", serial_ms, total_ops / (serial_ms / 1000.0), 1.0,
            reference.total.sim.admitted, reference.total.grows,
            reference.total.stale_rejected, "ref");

  const char* telemetry_path = std::getenv("WDM_TELEMETRY");
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ShardedEngine engine(config);
    ChurnDriver driver(engine, churn_config(workers));
    ThreadPool pool(workers);
    // Watch the 4-worker row (the contended configuration) when asked: the
    // sampler reads seqlock snapshots only, so attaching it cannot perturb
    // the determinism columns.
    const bool sample = telemetry_path != nullptr && *telemetry_path != '\0' &&
                        workers == 4;
    obs::TelemetrySampler sampler(engine, {std::chrono::milliseconds(5), true});
    if (sample) sampler.start();
    const auto start = std::chrono::steady_clock::now();
    const ChurnStats stats = driver.run(pool);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (sample) {
      sampler.stop();
      if (sampler.write_file(telemetry_path)) {
        std::cout << "wrote " << telemetry_path << " ("
                  << sampler.sample_count() << " telemetry samples)\n";
      } else {
        std::cerr << "cannot write " << telemetry_path << "\n";
        ok = false;
      }
    }
    const bool identical = stats == reference &&
                           stats.leftover_sessions == engine.active_sessions();
    ok = ok && identical;
    table.add(workers, wall_ms, total_ops / (wall_ms / 1000.0),
              serial_ms / wall_ms, stats.total.sim.admitted, stats.total.grows,
              stats.total.stale_rejected, identical ? "yes" : "NO");
  }
  table.print(std::cout);
  std::cout << "\n";

  // Queued submission axis (DESIGN.md §3.13): the same classic churn shipped
  // to the single-writer ShardExecutor instead of run inline under each
  // shard's claim. Identical streams, identical reference -- the only things
  // allowed to move are the wall-clock and throughput columns. The inline
  // 4-worker row above is the before; these rows are the after.
  std::cout << "Queued submission (single-writer executor): "
               "workers x queue depth, inline rows above are the baseline.\n\n";
  Table queued_table(
      {"workers", "depth", "wall ms", "ops/s", "vs serial", "identical"});
  for (const std::size_t workers : {1u, 4u, 8u}) {
    for (const std::size_t depth : {64u, 1024u}) {
      ShardedEngine engine(config);
      ChurnConfig queued_config = churn_config(workers);
      queued_config.queued = true;
      queued_config.queue_depth = depth;
      ChurnDriver driver(engine, queued_config);
      ThreadPool pool(1);  // queued mode submits from the calling thread
      const auto start = std::chrono::steady_clock::now();
      const ChurnStats stats = driver.run(pool);
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      const bool identical = stats == reference &&
                             stats.leftover_sessions == engine.active_sessions();
      ok = ok && identical;
      queued_table.add(workers, depth, wall_ms, total_ops / (wall_ms / 1000.0),
                       serial_ms / wall_ms, identical ? "yes" : "NO");
    }
  }
  queued_table.print(std::cout);
  std::cout << "\n";

  std::cout << (ok ? "OK: every worker count and queue depth reproduced the "
                     "reference counters bit-identically.\n"
                   : "FAIL: thread count or queue depth changed results, or a "
                     "stale id was accepted.\n");
  return ok ? 0 : 1;
}
