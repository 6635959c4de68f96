// ChurnDriver on a repack-enabled engine below the Theorem 1 bound.
//
// A repack admission (connect_locked -> connect_with_repack) migrates
// standing sessions to fresh ids. The driver's live pool must follow those
// renames, or a later departure names a migrated session's old id and the
// engine rejects it as stale. This pins that the churn completes with no
// stale id accepted, that repacks really happen, and that the result stays
// bit-identical across worker counts and the queued mode.
#include <gtest/gtest.h>

#include "engine/churn_driver.h"
#include "engine/sharded_engine.h"
#include "util/thread_pool.h"

namespace wdm::engine {
namespace {

// n = r = 4, k = 2 at m = 4, far below Theorem 1's m = 13, one shard near
// saturation: the cover search fails often and repack runs.
EngineConfig repack_engine_config() {
  EngineConfig config;
  config.params = {4, 4, 4, 2};
  config.shards = 1;
  config.repack = repack::RepackPolicy{};
  return config;
}

ChurnConfig repack_churn_config(std::size_t workers) {
  ChurnConfig config;
  config.ops_per_shard = 20000;
  config.batch = 64;
  config.workers = workers;
  config.self_check_every = 2000;
  return config;
}

TEST(RepackChurn, RunMatchesSerialReplayAtAnyWorkerCount) {
  ShardedEngine serial_engine(repack_engine_config());
  ChurnDriver serial_driver(serial_engine, repack_churn_config(1));
  const ChurnStats reference = serial_driver.run_serial();
  EXPECT_EQ(reference.total.stale_accepted, 0u);
  EXPECT_GT(reference.total.stale_probes, 0u);
  EXPECT_GT(reference.total.sim.repacked_admits, 0u);
  EXPECT_GT(reference.total.sim.blocked, 0u);
  EXPECT_EQ(reference.leftover_sessions, serial_engine.active_sessions());
  serial_engine.self_check();

  for (const std::size_t workers : {1u, 4u}) {
    for (const bool queued : {false, true}) {
      ShardedEngine engine(repack_engine_config());
      ThreadPool pool(workers);
      ChurnConfig config = repack_churn_config(workers);
      config.queued = queued;
      ChurnDriver driver(engine, config);
      const ChurnStats stats = driver.run(pool);
      EXPECT_EQ(stats, reference)
          << "workers=" << workers << " queued=" << queued << "\n got "
          << stats.to_string() << "\n want " << reference.to_string();
      EXPECT_EQ(engine.active_sessions(), engine.active_sessions_locked());
      engine.self_check();
    }
  }
}

}  // namespace
}  // namespace wdm::engine
