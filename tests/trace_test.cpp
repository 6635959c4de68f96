// Trace record / CSV round-trip / replay.
#include "sim/trace.h"

#include <cstdint>
#include <set>

#include "fabric/fabric_switch.h"
#include "sim/nested.h"

#include <gtest/gtest.h>

namespace wdm {
namespace {

TEST(Trace, CsvRoundTrip) {
  TraceRecorder recorder;
  recorder.on_connect(1, {{0, 0}, {{2, 1}, {3, 0}}});
  recorder.on_connect(2, {{1, 1}, {{0, 0}}});
  recorder.on_disconnect(1);
  const std::string csv = recorder.to_csv();
  EXPECT_NE(csv.find("connect,1,0,0,2:1|3:0"), std::string::npos);
  EXPECT_NE(csv.find("disconnect,1"), std::string::npos);
  const auto parsed = parse_trace_csv(csv);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed, recorder.events());
}

TEST(Trace, CsvCarriesVersionHeader) {
  TraceRecorder recorder;
  recorder.on_connect(1, {{0, 0}, {{2, 1}}});
  const std::string csv = recorder.to_csv();
  EXPECT_EQ(csv.rfind("# wdm-trace/1\n", 0), 0u);  // header is line 1
  const auto parsed = parse_trace_csv(csv);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed, recorder.events());
}

TEST(Trace, ParserAcceptsHeaderlessLegacyFiles) {
  // Pre-versioning traces had no header line; they must keep parsing.
  const auto events = parse_trace_csv("connect,1,0,0,2:1\ndisconnect,1\n");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, TraceEvent::Type::kConnect);
  EXPECT_EQ(events[1].type, TraceEvent::Type::kDisconnect);
}

TEST(Trace, ParserSkipsCommentsAndRejectsUnknownVersions) {
  EXPECT_NO_THROW((void)parse_trace_csv("# a note\nconnect,1,0,0,2:1\n"));
  EXPECT_NO_THROW((void)parse_trace_csv("# wdm-trace/1\n"));
  EXPECT_THROW((void)parse_trace_csv("# wdm-trace/2\nconnect,1,0,0,2:1\n"),
               std::invalid_argument);
}

TEST(Trace, ParserRejectsMalformedLines) {
  EXPECT_THROW((void)parse_trace_csv("teleport,1\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_trace_csv("connect,1,0,0\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_trace_csv("connect,1,0,0,\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_trace_csv("connect,1,0,0,2-1\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_trace_csv("connect,x,0,0,2:1\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_trace_csv("disconnect,1,2\n"), std::invalid_argument);
  EXPECT_NO_THROW((void)parse_trace_csv("\nconnect,1,0,0,2:1\n\n"));
}

TEST(Trace, ErrorMessagesCarryLineNumbers) {
  try {
    (void)parse_trace_csv("connect,1,0,0,2:1\nbogus,2\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(Trace, RecordedWorkloadReplaysCleanOnSameGeometry) {
  const ClosParams params{2, 2, 4, 2};  // theorem-sized (bound 4)
  SimConfig config;
  config.steps = 500;
  config.seed = 3;
  const auto events = record_random_workload(params, Construction::kMswDominant,
                                             MulticastModel::kMSW, config);
  ASSERT_FALSE(events.empty());

  MultistageSwitch sw(params, Construction::kMswDominant, MulticastModel::kMSW);
  const ReplayResult result = replay_trace(sw, events);
  // Recorded connects were admissible at record time; on the identical
  // geometry, replay applies the identical sequence, so everything admits.
  EXPECT_EQ(result.blocked, 0u);
  EXPECT_EQ(result.inadmissible, 0u);
  EXPECT_EQ(result.unmatched_disconnects, 0u);
  EXPECT_EQ(result.admitted, result.connects);
  sw.network().self_check();
}

// Below the bound with repack on, the recording repacks like the simulator:
// it offers exactly run_dynamic_sim's requests and departs only sessions it
// connected, under the keys they were connected with, even after a repack
// moved them to fresh ids.
TEST(Trace, RepackRecordingOffersTheSimulatorsLoad) {
  const ClosParams params{4, 4, 4, 2};
  SimConfig config;
  config.steps = 3000;
  config.arrival_fraction = 0.7;
  config.fanout = {1, 4};
  config.seed = 0x5717;
  config.repack = true;
  const auto events = record_random_workload(params, Construction::kMswDominant,
                                             MulticastModel::kMSW, config);
  MultistageSwitch sw(params, Construction::kMswDominant, MulticastModel::kMSW);
  const SimStats stats = run_dynamic_sim(sw, config);
  ASSERT_GT(stats.repacked_admits, 0u);

  std::set<std::uint64_t> connected;
  std::set<std::uint64_t> departed;
  for (const TraceEvent& event : events) {
    if (event.type == TraceEvent::Type::kConnect) {
      EXPECT_TRUE(connected.insert(event.key).second) << "key reused: " << event.key;
    } else {
      EXPECT_TRUE(connected.contains(event.key)) << "unknown key: " << event.key;
      EXPECT_TRUE(departed.insert(event.key).second) << "departed twice: " << event.key;
    }
  }
  EXPECT_EQ(connected.size(), stats.attempts);
  EXPECT_EQ(departed.size(), stats.departures);
}

TEST(Trace, ReplayOnSmallerMiddleStageShowsBlocking) {
  // The same workload replayed on an undersized network: blocks appear --
  // exactly the regression-fixture use case.
  SimConfig config;
  config.steps = 1200;
  config.arrival_fraction = 0.85;
  config.fanout = {2, 3};
  config.seed = 7;
  const auto events =
      record_random_workload(ClosParams{3, 3, 9, 1}, Construction::kMswDominant,
                             MulticastModel::kMSW, config);

  MultistageSwitch undersized(ClosParams{3, 3, 3, 1}, Construction::kMswDominant,
                              MulticastModel::kMSW, RoutingPolicy{2});
  const ReplayResult result = replay_trace(undersized, events);
  EXPECT_GT(result.blocked + result.inadmissible, 0u);
  // Replay is deterministic.
  MultistageSwitch again(ClosParams{3, 3, 3, 1}, Construction::kMswDominant,
                         MulticastModel::kMSW, RoutingPolicy{2});
  EXPECT_EQ(replay_trace(again, events), result);
}

TEST(Trace, ReplaysAcrossImplementations) {
  // The same recorded workload runs against the crossbar fabric and the
  // five-stage switch; both are nonblocking, so both admit everything the
  // recording admitted.
  const ClosParams params{2, 4, 7, 2};  // bound for n=2,r=4 is 7 (x=1)
  SimConfig config;
  config.steps = 300;
  config.fanout = {1, 3};
  config.seed = 17;
  const auto events = record_random_workload(params, Construction::kMswDominant,
                                             MulticastModel::kMAW, config);
  ASSERT_FALSE(events.empty());

  FabricSwitch crossbar(8, 2, MulticastModel::kMAW);
  const ReplayResult on_crossbar = replay_trace(crossbar, events);
  EXPECT_EQ(on_crossbar.blocked, 0u);
  EXPECT_EQ(on_crossbar.inadmissible, 0u);
  EXPECT_TRUE(crossbar.verify().ok);

  FiveStageSwitch five(2, 4, 2, Construction::kMswDominant, MulticastModel::kMAW);
  const ReplayResult on_five = replay_trace(five, events);
  EXPECT_EQ(on_five.blocked, 0u);
  EXPECT_EQ(on_five.inadmissible, 0u);
  EXPECT_EQ(on_five.admitted, on_crossbar.admitted);
  five.self_check();
}

TEST(Trace, UnmatchedDisconnectCounted) {
  MultistageSwitch sw = MultistageSwitch::nonblocking(
      2, 2, 1, Construction::kMswDominant, MulticastModel::kMSW);
  std::vector<TraceEvent> events;
  events.push_back({TraceEvent::Type::kDisconnect, 99, {}});
  const ReplayResult result = replay_trace(sw, events);
  EXPECT_EQ(result.unmatched_disconnects, 1u);
  EXPECT_EQ(result.disconnects, 1u);
}

}  // namespace
}  // namespace wdm
