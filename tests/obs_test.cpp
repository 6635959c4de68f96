// Observability plane: EngineHealthSnapshot encode/decode and seqlock
// publication, the per-shard flight recorder ring, the engine's commit-point
// publication contract (snapshots readable without claiming a shard, even
// while every shard's claim is held), agreement between engine tallies and
// ChurnDriver stats, and the wdm-telemetry/1 sampler.
#include "obs/health_snapshot.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/churn_driver.h"
#include "engine/sharded_engine.h"
#include "obs/flight_recorder.h"
#include "obs/session_table.h"
#include "obs/telemetry.h"
#include "util/json_lite.h"
#include "util/thread_pool.h"

namespace wdm {
namespace {

using engine::ChurnConfig;
using engine::ChurnDriver;
using engine::ChurnStats;
using engine::EngineConfig;
using engine::ShardedEngine;
using obs::EngineHealthSnapshot;
using obs::EngineOp;
using obs::EngineOpOutcome;
using obs::FlightRecorder;
using obs::SeqlockSnapshotSlot;
using obs::TelemetrySampler;

EngineConfig small_config() {
  EngineConfig config;
  config.params = {2, 4, 3, 2};  // n=2 r=4 m=3 k=2, N=8 per shard
  config.shards = 3;
  return config;
}

EngineHealthSnapshot sample_snapshot() {
  EngineHealthSnapshot snapshot;
  snapshot.version = 42;
  snapshot.shard = 2;
  snapshot.middle_count = 3;
  snapshot.links_per_middle = 4;
  snapshot.sessions = 5;
  snapshot.connects = 17;
  snapshot.disconnects = 12;
  snapshot.grows = 3;
  snapshot.grow_blocked = 1;
  snapshot.stale_rejected = 2;
  snapshot.bound_m = 5;
  snapshot.failed_middles = 1;
  snapshot.margin = -3;  // (3 - 1) - 5: negative margins must round-trip
  snapshot.nonblocking = false;
  snapshot.middle_busy = {3, 1, 0};  // busy lanes on middles 0, 1, 2
  snapshot.busy_middle_lanes = 4;
  return snapshot;
}

TEST(EngineHealthSnapshot, EncodeDecodeRoundTrip) {
  const EngineHealthSnapshot original = sample_snapshot();
  ASSERT_TRUE(original.consistent());
  EXPECT_EQ(original.middle_busy_lanes(0), 3u);
  EXPECT_EQ(original.middle_busy_lanes(1), 1u);
  EXPECT_EQ(original.middle_busy_lanes(2), 0u);
  EXPECT_EQ(original.recomputed_margin(), -3);

  // One word per middle after the header; the link count does not enter.
  ASSERT_EQ(EngineHealthSnapshot::encoded_words(3, 4),
            EngineHealthSnapshot::kHeaderWords + 3);
  std::vector<std::uint64_t> words(
      EngineHealthSnapshot::encoded_words(3, 4), 0);
  original.encode(words.data());
  const EngineHealthSnapshot decoded =
      EngineHealthSnapshot::decode(words);

  EXPECT_EQ(decoded.version, original.version);
  EXPECT_EQ(decoded.shard, original.shard);
  EXPECT_EQ(decoded.middle_count, original.middle_count);
  EXPECT_EQ(decoded.links_per_middle, original.links_per_middle);
  EXPECT_EQ(decoded.sessions, original.sessions);
  EXPECT_EQ(decoded.busy_middle_lanes, original.busy_middle_lanes);
  EXPECT_EQ(decoded.connects, original.connects);
  EXPECT_EQ(decoded.disconnects, original.disconnects);
  EXPECT_EQ(decoded.grows, original.grows);
  EXPECT_EQ(decoded.grow_blocked, original.grow_blocked);
  EXPECT_EQ(decoded.stale_rejected, original.stale_rejected);
  EXPECT_EQ(decoded.bound_m, original.bound_m);
  EXPECT_EQ(decoded.failed_middles, original.failed_middles);
  EXPECT_EQ(decoded.margin, original.margin);
  EXPECT_EQ(decoded.nonblocking, original.nonblocking);
  EXPECT_EQ(decoded.middle_busy, original.middle_busy);
  EXPECT_TRUE(decoded.consistent());
}

TEST(EngineHealthSnapshot, ConsistentRejectsMismatchedBusyCounts) {
  EngineHealthSnapshot wrong_sum = sample_snapshot();
  wrong_sum.middle_busy[2] = 1;  // sums to 5, header says 4
  EXPECT_FALSE(wrong_sum.consistent());
  EngineHealthSnapshot wrong_size = sample_snapshot();
  wrong_size.middle_busy.push_back(0);  // 4 counts for 3 middles
  EXPECT_FALSE(wrong_size.consistent());
}

TEST(EngineHealthSnapshot, DecodeRejectsTruncatedBuffers) {
  const EngineHealthSnapshot original = sample_snapshot();
  std::vector<std::uint64_t> words(
      EngineHealthSnapshot::encoded_words(3, 4), 0);
  original.encode(words.data());
  // Shorter than the header, and shorter than header + busy-lane payload.
  EXPECT_THROW((void)EngineHealthSnapshot::decode({words.begin(), words.begin() + 3}),
               std::invalid_argument);
  EXPECT_THROW((void)EngineHealthSnapshot::decode(
                   {words.begin(), words.begin() + EngineHealthSnapshot::kHeaderWords + 2}),
               std::invalid_argument);
}

TEST(SeqlockSnapshotSlot, PublishReadRoundTrip) {
  SeqlockSnapshotSlot slot(4);
  EXPECT_EQ(slot.sequence(), 0u);

  const std::uint64_t payload[4] = {11, 22, 33, 44};
  slot.publish(payload, 4);
  EXPECT_EQ(slot.sequence(), 2u);  // even outside the write section

  std::uint64_t out[4] = {};
  std::size_t retries = 99;
  EXPECT_EQ(slot.read(out, 4, &retries), 2u);
  EXPECT_EQ(retries, 0u);  // quiescent slot: first attempt succeeds
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], payload[i]);

  const std::uint64_t next[4] = {5, 6, 7, 8};
  slot.publish(next, 4);
  EXPECT_EQ(slot.read(out, 4), 4u);
  EXPECT_EQ(out[0], 5u);

  EXPECT_THROW(slot.publish(payload, 5), std::invalid_argument);
  EXPECT_THROW((void)slot.read(out, 5), std::invalid_argument);
  EXPECT_THROW(SeqlockSnapshotSlot(0), std::invalid_argument);
}

TEST(FlightRecorder, RecordsInOrderAndWrapsWithDropAccounting) {
  FlightRecorder recorder(/*shard=*/7, /*capacity=*/4);
  EXPECT_THROW(FlightRecorder(0, 0), std::invalid_argument);

  for (std::uint32_t i = 1; i <= 6; ++i) {
    recorder.record(EngineOp::kConnect, EngineOpOutcome::kAdmitted, i);
  }
  EXPECT_EQ(recorder.ticks(), 6u);
  EXPECT_EQ(recorder.dropped(), 2u);  // ticks 1 and 2 overwritten

  const FlightRecorder::Dump dump = recorder.dump();
  EXPECT_EQ(dump.shard, 7u);
  EXPECT_EQ(dump.dropped, 2u);
  EXPECT_EQ(dump.ticks, 6u);
  ASSERT_EQ(dump.records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(dump.records[i].tick, 3 + i);  // oldest first, newest window
    EXPECT_EQ(dump.records[i].session, 3 + i);
  }

  std::ostringstream os;
  FlightRecorder::print(dump, os);
  EXPECT_NE(os.str().find("shard 7"), std::string::npos);
  EXPECT_NE(os.str().find("connect admitted"), std::string::npos);
  EXPECT_NE(os.str().find("2 dropped"), std::string::npos);

  recorder.clear();
  EXPECT_EQ(recorder.ticks(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_TRUE(recorder.dump().records.empty());
}

TEST(EngineObservability, SnapshotsTrackCommitPoints) {
  ShardedEngine engine(small_config());

  // Construction publishes the empty fabric: version >= 1, zero sessions,
  // internally consistent, with the Theorem bound already filled in.
  for (const EngineHealthSnapshot& snapshot : engine.health_snapshots()) {
    EXPECT_GE(snapshot.version, 1u);
    EXPECT_EQ(snapshot.sessions, 0u);
    EXPECT_EQ(snapshot.busy_middle_lanes, 0u);
    EXPECT_EQ(snapshot.bound_m, engine.theorem_bound().m);
    EXPECT_TRUE(snapshot.consistent());
  }

  const auto session = engine.connect({{0, 0}, {{3, 0}, {5, 0}}});
  ASSERT_TRUE(session.has_value());
  EngineHealthSnapshot after_connect = engine.health_snapshot(session->shard);
  EXPECT_EQ(after_connect.sessions, 1u);
  EXPECT_EQ(after_connect.connects, 1u);
  EXPECT_GT(after_connect.busy_middle_lanes, 0u);
  EXPECT_TRUE(after_connect.consistent());

  const engine::GrowResult grown = engine.grow(*session, {6, 0});
  ASSERT_EQ(grown.status, engine::GrowResult::Status::kGrown);
  EngineHealthSnapshot after_grow = engine.health_snapshot(session->shard);
  EXPECT_EQ(after_grow.grows, 1u);
  EXPECT_GT(after_grow.version, after_connect.version);

  // The pre-grow id is stale now: the rejection is itself a commit point.
  EXPECT_FALSE(engine.disconnect(*session));
  EXPECT_EQ(engine.health_snapshot(session->shard).stale_rejected, 1u);

  EXPECT_TRUE(engine.disconnect({session->shard, grown.connection}));
  EngineHealthSnapshot after_disconnect =
      engine.health_snapshot(session->shard);
  EXPECT_EQ(after_disconnect.sessions, 0u);
  EXPECT_EQ(after_disconnect.busy_middle_lanes, 0u);
  EXPECT_EQ(after_disconnect.disconnects, 1u);
  EXPECT_TRUE(after_disconnect.consistent());
}

TEST(EngineObservability, SnapshotReadsTakeNoShardClaim) {
  // The acceptance check for the lock-free claim: hold EVERY shard's claim
  // and read fresh snapshots anyway from another thread. Any exclusive
  // acquisition in the read path would spin forever here (and ctest's
  // timeout would flag it).
  ShardedEngine engine(small_config());
  const auto session = engine.connect({{0, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());

  std::vector<EngineHealthSnapshot> snapshots;
  std::size_t held = 0;
  // Nest with_shard_exclusive across all shards on this thread, so every
  // claim is held at once while the reader runs.
  std::function<void(std::size_t)> hold = [&](std::size_t shard) {
    if (shard == engine.shard_count()) {
      std::thread reader([&] { snapshots = engine.health_snapshots(); });
      reader.join();
      return;
    }
    engine.with_shard_exclusive(shard, [&] {
      ++held;
      hold(shard + 1);
    });
  };
  hold(0);
  EXPECT_EQ(held, engine.shard_count());

  ASSERT_EQ(snapshots.size(), engine.shard_count());
  std::uint64_t sessions = 0;
  for (const EngineHealthSnapshot& snapshot : snapshots) {
    EXPECT_TRUE(snapshot.consistent());
    sessions += snapshot.sessions;
  }
  EXPECT_EQ(sessions, 1u);  // fresh state, not a stale pre-connect view
}

TEST(EngineObservability, TalliesAgreeWithChurnStats) {
  // Engine-side tallies and driver-side ChurnStats are independent books of
  // the same ops; after the run they must agree entry by entry.
  ShardedEngine engine(small_config());
  ChurnConfig churn;
  churn.ops_per_shard = 600;
  churn.workers = 4;
  ChurnDriver driver(engine, churn);
  ThreadPool pool(churn.workers);
  const ChurnStats stats = driver.run(pool);

  std::uint64_t connects = 0, disconnects = 0, grows = 0, sessions = 0;
  for (const EngineHealthSnapshot& snapshot : engine.health_snapshots()) {
    EXPECT_TRUE(snapshot.consistent());
    connects += snapshot.connects;
    disconnects += snapshot.disconnects;
    grows += snapshot.grows;
    sessions += snapshot.sessions;
  }
  EXPECT_EQ(connects, stats.total.sim.admitted);
  EXPECT_EQ(disconnects, stats.total.sim.departures);
  EXPECT_EQ(grows, stats.total.grows);
  EXPECT_EQ(sessions, stats.leftover_sessions);

  // Per-shard, not just in aggregate (shard s's lane is shard s's replica).
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    const EngineHealthSnapshot snapshot = engine.health_snapshot(s);
    EXPECT_EQ(snapshot.connects, stats.per_shard[s].sim.admitted);
    EXPECT_EQ(snapshot.disconnects, stats.per_shard[s].sim.departures);
    EXPECT_EQ(snapshot.grows, stats.per_shard[s].grows);
  }
}

TEST(EngineObservability, FlightRecorderCapturesTheOpWindow) {
  ShardedEngine engine(small_config());
  const auto session = engine.connect({{0, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());
  EXPECT_TRUE(engine.disconnect(*session));
  EXPECT_FALSE(engine.disconnect(*session));  // stale

  const FlightRecorder::Dump dump = engine.flight_dump(session->shard);
  ASSERT_EQ(dump.records.size(), 3u);
  EXPECT_EQ(dump.records[0].op, EngineOp::kConnect);
  EXPECT_EQ(dump.records[0].outcome, EngineOpOutcome::kAdmitted);
  EXPECT_EQ(dump.records[1].op, EngineOp::kDisconnect);
  EXPECT_EQ(dump.records[1].outcome, EngineOpOutcome::kAdmitted);
  EXPECT_EQ(dump.records[2].op, EngineOp::kDisconnect);
  EXPECT_EQ(dump.records[2].outcome, EngineOpOutcome::kStale);

  std::ostringstream os;
  engine.dump_flight_recorders(os);
  EXPECT_NE(os.str().find("disconnect stale"), std::string::npos);
  // Every shard's ring is rendered, active or not.
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    EXPECT_NE(os.str().find("flight recorder shard " + std::to_string(s)),
              std::string::npos);
  }
}

TEST(Telemetry, TimelineParsesWithMonotoneSamplesAndHonestTotals) {
  ShardedEngine engine(small_config());
  TelemetrySampler sampler(engine, {std::chrono::milliseconds(1), true});
  EXPECT_EQ(sampler.sample_now(), 0u);  // synchronous sampling works cold

  sampler.start();
  ChurnConfig churn;
  churn.ops_per_shard = 400;
  churn.workers = 2;
  ChurnDriver driver(engine, churn);
  ThreadPool pool(churn.workers);
  const ChurnStats stats = driver.run(pool);
  sampler.stop();

  const std::vector<std::string> lines = sampler.lines();
  ASSERT_GE(lines.size(), 2u);  // the cold sample plus the closing sample
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const JsonValue root = parse_json(lines[i]);
    EXPECT_EQ(root.at("schema").as_string(), obs::kTelemetrySchema);
    EXPECT_EQ(root.at("sample").as_number(), static_cast<double>(i));
    EXPECT_EQ(root.at("shards").as_array().size(), engine.shard_count());
    // The heatmap row has one entry per middle module on every shard.
    for (const JsonValue& shard : root.at("shards").as_array()) {
      EXPECT_EQ(shard.at("occupancy").as_array().size(),
                engine.config().params.m);
    }
  }

  // The closing sample observes the quiesced engine: its totals ARE the
  // run's ChurnStats.
  const JsonValue last = parse_json(lines.back());
  const JsonValue& totals = last.at("totals");
  EXPECT_EQ(totals.at("connects").as_number(),
            static_cast<double>(stats.total.sim.admitted));
  EXPECT_EQ(totals.at("disconnects").as_number(),
            static_cast<double>(stats.total.sim.departures));
  EXPECT_EQ(totals.at("grows").as_number(),
            static_cast<double>(stats.total.grows));
  EXPECT_EQ(totals.at("sessions").as_number(),
            static_cast<double>(stats.leftover_sessions));
  EXPECT_EQ(last.at("margin").as_number(),
            static_cast<double>(engine.health_snapshot(0).margin));
}

TEST(SessionGenTable, ProbesFollowTheWriterExactly) {
  obs::SessionGenTable table;
  // Never-touched slot: fails, and the raw word distinguishes it.
  EXPECT_FALSE(table.is_active(7, 1));
  EXPECT_EQ(table.probe_word(7), 0u);
  EXPECT_EQ(table.allocated_chunks(), 0u);

  table.mark_active(7, 1);
  EXPECT_TRUE(table.is_active(7, 1));
  EXPECT_FALSE(table.is_active(7, 2));  // wrong generation never validates
  EXPECT_FALSE(table.is_active(8, 1));  // neighboring slot untouched
  EXPECT_EQ(table.allocated_chunks(), 1u);

  table.mark_released(7, 1);
  EXPECT_FALSE(table.is_active(7, 1));
  EXPECT_EQ(table.probe_word(7), (std::uint64_t{1} << 1));  // released != never

  // Slot reuse under a later generation: the old id keeps failing.
  table.mark_active(7, 2);
  EXPECT_FALSE(table.is_active(7, 1));
  EXPECT_TRUE(table.is_active(7, 2));
}

TEST(SessionGenTable, ChunksAllocateOnDemandAndReadersSeeThem) {
  obs::SessionGenTable table;
  // Slots in distinct chunks: the directory publishes each chunk once.
  const std::uint32_t far_slot =
      static_cast<std::uint32_t>(obs::SessionGenTable::kChunkEntries * 3 + 11);
  table.mark_active(0, 5);
  table.mark_active(far_slot, 9);
  EXPECT_EQ(table.allocated_chunks(), 2u);
  EXPECT_TRUE(table.is_active(0, 5));
  EXPECT_TRUE(table.is_active(far_slot, 9));
  // A slot in an unallocated chunk fails without allocating anything.
  EXPECT_FALSE(table.is_active(
      static_cast<std::uint32_t>(obs::SessionGenTable::kChunkEntries), 1));
  EXPECT_EQ(table.allocated_chunks(), 2u);
  EXPECT_THROW(
      table.mark_active(
          static_cast<std::uint32_t>(obs::SessionGenTable::kMaxSlots), 1),
      std::invalid_argument);
}

TEST(Telemetry, StopWithoutStartStillYieldsAClosingSample) {
  ShardedEngine engine(small_config());
  TelemetrySampler sampler(engine, {std::chrono::milliseconds(50), false});
  sampler.stop();
  ASSERT_EQ(sampler.sample_count(), 1u);
  const JsonValue root = parse_json(sampler.lines().front());
  EXPECT_EQ(root.at("totals").at("sessions").as_number(), 0.0);
  // include_metrics=false: the sample is a pure function of engine state.
  EXPECT_EQ(root.find("metrics"), nullptr);

  std::ostringstream os;
  sampler.write(os);
  EXPECT_EQ(os.str(), sampler.lines().front() + "\n");
}

}  // namespace
}  // namespace wdm
