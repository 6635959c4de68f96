// Model-based fuzzer for the sharded session engine.
//
// A seeded op stream -- connect, disconnect, grow, grow_to_shard,
// grow_anywhere, and replays of stale or out-of-range ids -- runs against a
// ShardedEngine and, side by side, against a plain reference model: a map
// from (shard, connection id) to the session's request. Shards sit at the
// Theorem-1 bound with its spread, so routing never blocks an admissible
// request and the model predicts every answer from endpoint occupancy
// alone: admitted iff the endpoints are free on the shard, the grow
// outcome and the renewed id's existence, and the shard grow_anywhere
// lands on (candidates ordered by fewest sessions, then shard index, since
// every shard has the same margin). After every step the engine must agree
// with the model on
//   * endpoint accounting: each shard's input_lanes_busy/output_lanes_busy
//     per port against the model's sessions on that shard;
//   * session-table answers: is_active/find_session true for every model
//     session (with its slot and generation), false for every stale id;
//   * counts: active_sessions() == active_sessions_locked() == the model,
//     and each shard's admission_precheck().sessions.
//
// Each stream runs once with no executor and once with a 2-worker
// ShardExecutor attached. With the executor, a third of the ops are shipped
// to it as tasks calling the *_locked bodies, so the claim handoff between
// inline callers and workers is exercised; every task is awaited, so the
// stream and its answers do not depend on scheduling. No wall clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "capacity/models.h"
#include "engine/shard_executor.h"
#include "engine/sharded_engine.h"
#include "util/rng.h"

namespace wdm::engine {
namespace {

constexpr std::size_t kSteps = 1500;
constexpr std::size_t kStaleKept = 64;

using Key = std::pair<std::uint32_t, ConnectionId>;  // (shard, connection)

class EngineModel
    : public ::testing::TestWithParam<std::tuple<MulticastModel, std::size_t>> {
 protected:
  void SetUp() override {
    const auto [model, workers] = GetParam();
    const NonblockingBound bound = theorem1_min_m(2, 4);
    EngineConfig config;
    config.params = {2, 4, bound.m, 2};  // N=8 ports, k=2 lanes per shard
    config.network_model = model;
    config.policy = RoutingPolicy{bound.x};
    config.shards = 3;
    engine_.emplace(config);
    if (workers != 0) {
      executor_.emplace(*engine_, ExecutorConfig{.workers = workers,
                                                 .queue_capacity = 4});
    }
  }

  void TearDown() override {
    executor_.reset();  // destroy before the engine
    engine_.reset();
  }

  ShardedEngine& engine() { return *engine_; }
  std::size_t ports() const { return engine_->port_count(); }
  Wavelength lanes() const {
    return static_cast<Wavelength>(engine_->config().params.k);
  }
  MulticastModel model() const { return engine_->config().network_model; }

  /// Run `fn` with exclusive access to `shard`: through the public claim
  /// helper, or (executor attached, `ship`) as an awaited executor task.
  template <typename Fn>
  void on_shard(std::size_t shard, bool ship, Fn&& fn) {
    if (!executor_ || !ship) {
      engine_->with_shard_exclusive(shard, fn);
      return;
    }
    using Body = std::remove_reference_t<Fn>;
    OpTicket ticket;
    executor_->submit_task(
        shard, [](void* body, std::uint64_t) { (*static_cast<Body*>(body))(); },
        &fn, 0, &ticket);
    ticket.wait();
  }

  // -- reference model --------------------------------------------------------

  /// Busy lane bits per port on `shard` implied by the model's sessions.
  void occupancy(std::uint32_t shard, std::vector<std::uint64_t>& in,
                 std::vector<std::uint64_t>& out) const {
    in.assign(ports(), 0);
    out.assign(ports(), 0);
    for (const auto& [key, request] : live_) {
      if (key.first != shard) continue;
      in[request.input.port] |= std::uint64_t{1} << request.input.lane;
      for (const WavelengthEndpoint& o : request.outputs) {
        out[o.port] |= std::uint64_t{1} << o.lane;
      }
    }
  }

  /// True iff every endpoint of `request` is free on `shard`, ignoring the
  /// model session `ignore` (a session being grown frees its own first).
  bool endpoints_free(std::uint32_t shard, const MulticastRequest& request,
                      std::optional<Key> ignore = std::nullopt) const {
    for (const auto& [key, held] : live_) {
      if (key.first != shard || (ignore && key == *ignore)) continue;
      if (held.input == request.input) return false;
      for (const WavelengthEndpoint& o : held.outputs) {
        for (const WavelengthEndpoint& want : request.outputs) {
          if (o == want) return false;
        }
      }
    }
    return true;
  }

  std::size_t sessions_on(std::uint32_t shard) const {
    return static_cast<std::size_t>(
        std::count_if(live_.begin(), live_.end(),
                      [shard](const auto& e) { return e.first.first == shard; }));
  }

  void retire(const Key& key) {
    live_.erase(key);
    stale_.push_back(key);
    if (stale_.size() > kStaleKept) stale_.erase(stale_.begin());
  }

  // -- op generation ------------------------------------------------------------

  MulticastRequest random_request() {
    MulticastRequest request;
    request.input = {rng_.next_below(ports()),
                     static_cast<Wavelength>(rng_.next_below(lanes()))};
    const std::size_t fanout = 1 + rng_.next_below(3);
    const auto shared_lane = static_cast<Wavelength>(rng_.next_below(lanes()));
    std::vector<std::size_t> order(ports());
    for (std::size_t p = 0; p < ports(); ++p) order[p] = p;
    rng_.shuffle(order);
    for (std::size_t i = 0; i < fanout; ++i) {
      request.outputs.push_back({order[i], destination_lane(request, shared_lane)});
    }
    return request;
  }

  /// A lane for a new destination of `request` under the network model.
  Wavelength destination_lane(const MulticastRequest& request,
                              Wavelength fresh) {
    switch (model()) {
      case MulticastModel::kMSW:
        return request.input.lane;
      case MulticastModel::kMSDW:
        return request.outputs.empty() ? fresh : request.outputs.front().lane;
      case MulticastModel::kMAW:
        break;
    }
    return static_cast<Wavelength>(rng_.next_below(lanes()));
  }

  /// A destination on a port `request` does not reach yet (free or not).
  std::optional<WavelengthEndpoint> random_destination(
      const MulticastRequest& request) {
    std::vector<std::size_t> unused;
    for (std::size_t p = 0; p < ports(); ++p) {
      if (std::none_of(request.outputs.begin(), request.outputs.end(),
                       [p](const WavelengthEndpoint& o) { return o.port == p; })) {
        unused.push_back(p);
      }
    }
    if (unused.empty()) return std::nullopt;
    const std::size_t port = unused[rng_.next_below(unused.size())];
    return WavelengthEndpoint{
        port, destination_lane(request,
                               static_cast<Wavelength>(rng_.next_below(lanes())))};
  }

  Key random_live() {
    auto it = live_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng_.next_below(live_.size())));
    return it->first;
  }

  // -- ops ------------------------------------------------------------------------

  void do_connect(std::size_t mode) {
    const MulticastRequest request = random_request();
    const auto shard = static_cast<std::uint32_t>(engine_->shard_of(request.input.port));
    const bool expect = endpoints_free(shard, request);
    std::optional<SessionId> got;
    if (mode == 0) {
      got = engine_->connect(request);
    } else {
      on_shard(shard, mode == 2, [&] {
        if (const auto id = engine_->connect_locked(shard, request)) {
          got = SessionId{shard, *id};
        }
      });
    }
    ASSERT_EQ(got.has_value(), expect) << "connect " << request.to_string();
    ++outcomes_[expect ? "connect admitted" : "connect rejected"];
    if (!got) return;
    ASSERT_EQ(got->shard, shard);
    ASSERT_FALSE(live_.contains({shard, got->connection}));
    live_[{shard, got->connection}] = request;
  }

  void do_disconnect(std::size_t mode) {
    const Key key = random_live();
    bool released = false;
    if (mode == 0) {
      released = engine_->disconnect({key.first, key.second});
    } else {
      on_shard(key.first, mode == 2, [&] {
        released = engine_->disconnect_locked(key.first, key.second);
      });
    }
    ASSERT_TRUE(released);
    retire(key);
  }

  void do_grow(std::size_t mode) {
    const Key key = random_live();
    const MulticastRequest request = live_.at(key);
    const auto destination = random_destination(request);
    if (!destination) return;
    MulticastRequest grown = request;
    grown.outputs.push_back(*destination);
    const bool expect_grown = endpoints_free(key.first, grown, key);
    GrowResult result;
    if (mode == 0) {
      result = engine_->grow({key.first, key.second}, *destination);
    } else {
      on_shard(key.first, mode == 2, [&] {
        result = engine_->grow_locked(key.first, key.second, *destination);
      });
    }
    ASSERT_EQ(result.status, expect_grown ? GrowResult::Status::kGrown
                                          : GrowResult::Status::kBlocked);
    // Break-before-make: a fresh id either way.
    ASSERT_NE(result.connection, key.second);
    ++outcomes_[expect_grown ? "grow grown" : "grow blocked"];
    retire(key);
    live_[{key.first, result.connection}] = expect_grown ? grown : request;
  }

  /// Where a cross-shard grow of `key` by `grown` may land: the first
  /// candidate (other than home) whose endpoints are all free.
  std::optional<std::uint32_t> landing(const Key& key,
                                       const MulticastRequest& grown,
                                       std::vector<std::uint32_t> candidates) const {
    for (const std::uint32_t shard : candidates) {
      if (shard != key.first && endpoints_free(shard, grown)) return shard;
    }
    return std::nullopt;
  }

  void do_grow_to_shard() {
    const Key key = random_live();
    const MulticastRequest request = live_.at(key);
    const auto destination = random_destination(request);
    if (!destination) return;
    const auto target = static_cast<std::uint32_t>(rng_.next_below(engine_->shard_count()));
    if (target == key.first) return;  // that is a local grow, covered above
    MulticastRequest grown = request;
    grown.outputs.push_back(*destination);
    const bool expect = landing(key, grown, {target}).has_value();
    const CrossGrowResult result =
        engine_->grow_to_shard({key.first, key.second}, *destination, target);
    ++outcomes_[expect ? "grow_to_shard grown" : "grow_to_shard blocked"];
    if (!expect) {
      ASSERT_EQ(result.status, GrowResult::Status::kBlocked);
      ASSERT_EQ(result.session, (SessionId{key.first, key.second}));  // untouched
      return;
    }
    ASSERT_EQ(result.status, GrowResult::Status::kGrown);
    ASSERT_EQ(result.session.shard, target);
    retire(key);
    live_[{target, result.session.connection}] = grown;
  }

  void do_grow_anywhere() {
    const Key key = random_live();
    const MulticastRequest request = live_.at(key);
    const auto destination = random_destination(request);
    if (!destination) return;
    MulticastRequest grown = request;
    grown.outputs.push_back(*destination);
    const bool local = endpoints_free(key.first, grown, key);
    // Fallback order: every shard has the same margin, so fewest sessions
    // first, then shard index.
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t s = 0; s < engine_->shard_count(); ++s) candidates.push_back(s);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return sessions_on(a) < sessions_on(b);
                     });
    const auto remote = local ? std::nullopt : landing(key, grown, candidates);

    const CrossGrowResult result =
        engine_->grow_anywhere({key.first, key.second}, *destination);
    ASSERT_NE(result.session, (SessionId{key.first, key.second}));
    ++outcomes_[local    ? "grow_anywhere local"
                : remote ? "grow_anywhere remote"
                         : "grow_anywhere blocked"];
    retire(key);
    if (local || remote) {
      ASSERT_EQ(result.status, GrowResult::Status::kGrown);
      ASSERT_EQ(result.session.shard, local ? key.first : *remote);
      if (remote) {
        // The blocked local attempt renewed the home id before migrating;
        // that id is stale now too, but the model never saw it.
        ASSERT_NE(result.session.shard, key.first);
      }
      live_[{result.session.shard, result.session.connection}] = grown;
      return;
    }
    ASSERT_EQ(result.status, GrowResult::Status::kBlocked);
    ASSERT_EQ(result.session.shard, key.first);  // renewed at home
    live_[{key.first, result.session.connection}] = request;
  }

  void do_stale() {
    const auto& pick = [&]() -> Key {
      if (stale_.empty() || rng_.next_bool(0.2)) {
        // Out-of-range shard: rejected before any claim.
        return {static_cast<std::uint32_t>(engine_->shard_count() + rng_.next_below(3)),
                1 + rng_.next_below(64)};
      }
      return stale_[rng_.next_below(stale_.size())];
    };
    const Key key = pick();
    ++outcomes_["stale"];
    const SessionId session{key.first, key.second};
    const WavelengthEndpoint destination{rng_.next_below(ports()), 0};
    switch (rng_.next_below(4)) {
      case 0:
        ASSERT_FALSE(engine_->disconnect(session));
        break;
      case 1:
        ASSERT_EQ(engine_->grow(session, destination).status,
                  GrowResult::Status::kStaleSession);
        break;
      case 2:
        ASSERT_EQ(engine_->grow_anywhere(session, destination).status,
                  GrowResult::Status::kStaleSession);
        break;
      default:
        ASSERT_EQ(engine_->grow_to_shard(session, destination, 0).status,
                  GrowResult::Status::kStaleSession);
        break;
    }
  }

  // -- agreement checks -----------------------------------------------------------

  void check_agreement(std::size_t step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<std::uint64_t> in, out;
    for (std::uint32_t s = 0; s < engine_->shard_count(); ++s) {
      occupancy(s, in, out);
      std::vector<std::uint64_t> got_in(ports()), got_out(ports());
      on_shard(s, step % 2 == 1, [&] {
        const ThreeStageNetwork& network = engine_->shard_switch(s).network();
        for (std::size_t p = 0; p < ports(); ++p) {
          got_in[p] = network.input_lanes_busy(p);
          got_out[p] = network.output_lanes_busy(p);
        }
      });
      ASSERT_EQ(got_in, in) << "input endpoint words, shard " << s;
      ASSERT_EQ(got_out, out) << "output endpoint words, shard " << s;
      ASSERT_EQ(engine_->admission_precheck(s).sessions, sessions_on(s));
    }
    for (const auto& [key, request] : live_) {
      const SessionId session{key.first, key.second};
      ASSERT_TRUE(engine_->is_active(session)) << request.to_string();
      const auto probe = engine_->find_session(session);
      ASSERT_TRUE(probe.has_value());
      ASSERT_EQ(probe->shard, key.first);
      ASSERT_EQ(probe->slot, ThreeStageNetwork::slot_of_id(key.second));
      ASSERT_EQ(probe->generation, ThreeStageNetwork::generation_of_id(key.second));
    }
    for (const Key& key : stale_) {
      ASSERT_FALSE(engine_->is_active({key.first, key.second}));
      ASSERT_FALSE(engine_->find_session({key.first, key.second}).has_value());
    }
    ASSERT_EQ(engine_->active_sessions(), live_.size());
    ASSERT_EQ(engine_->active_sessions_locked(), live_.size());
  }

  void run_stream() {
    for (std::size_t step = 0; step < kSteps; ++step) {
      const std::size_t mode = step % 3;  // public / claimed / shipped
      const double op = rng_.next_double();
      if (live_.empty() || op < 0.40) {
        do_connect(mode);
      } else if (op < 0.55) {
        do_disconnect(mode);
      } else if (op < 0.70) {
        do_grow(mode);
      } else if (op < 0.78) {
        do_grow_to_shard();
      } else if (op < 0.88) {
        do_grow_anywhere();
      } else {
        do_stale();
      }
      if (HasFatalFailure()) return;
      check_agreement(step);
      if (HasFatalFailure()) return;
      if (step % 100 == 99) engine_->self_check();
      ++counts_[live_.size() == 0 ? 0 : 1];
    }
  }

  Rng rng_{0xE6E1};
  std::map<Key, MulticastRequest> live_;
  std::vector<Key> stale_;
  std::size_t counts_[2] = {0, 0};  // steps that ended empty / non-empty
  std::map<std::string, std::size_t> outcomes_;

 private:
  std::optional<ShardedEngine> engine_;
  std::optional<ShardExecutor> executor_;
};

TEST_P(EngineModel, EveryAnswerMatchesTheReferenceModel) {
  run_stream();
  // The stream kept sessions standing for most of the run (so the checks
  // above had something to check).
  EXPECT_GT(counts_[1], kSteps / 2);
  // ... and reached every outcome the model predicts.
  for (const char* outcome :
       {"connect admitted", "connect rejected", "grow grown", "grow blocked",
        "grow_to_shard grown", "grow_to_shard blocked", "grow_anywhere local",
        "grow_anywhere remote", "grow_anywhere blocked", "stale"}) {
    EXPECT_GT(outcomes_[outcome], 0u) << outcome;
  }
  for (const auto& [outcome, count] : outcomes_) {
    RecordProperty(outcome, static_cast<int>(count));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndExecutors, EngineModel,
    ::testing::Combine(::testing::Values(MulticastModel::kMSW, MulticastModel::kMSDW,
                                         MulticastModel::kMAW),
                       ::testing::Values(std::size_t{0}, std::size_t{2})),
    [](const auto& info) {
      return std::string(model_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) == 0 ? "NoExecutor" : "TwoWorkers");
    });

}  // namespace
}  // namespace wdm::engine
