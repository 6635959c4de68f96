// session_bench: end-to-end and per-layer timing of ShardedEngine's public
// session API, one caller thread in a closed loop with zero think time.
//
//   session_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The engine runs in mutex mode with no executor, sampler or prober thread.
// Every request is drawn from the benchmark's own shadow model (shadow.h)
// before the timed call. --trace 0 reports the end-to-end metrics. --trace 1
// runs an untraced and a traced caller in turns; the traced one replays
// every op, with the same inputs in the same order, on mirrors the benchmark
// owns (per shard a MultistageSwitch, a SeqlockSnapshotSlot, a
// SessionGenTable and a FlightRecorder, plus one Counter) and times each
// lower layer's public call; engine self time is the engine call minus the
// mirrored calls. A mirror decision that differs from the engine's fails
// the run. The last stdout line is the result object; see NOTES.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "engine/churn_driver.h"
#include "engine/sharded_engine.h"
#include "obs/flight_recorder.h"
#include "obs/health_snapshot.h"
#include "obs/session_table.h"
#include "samples.h"
#include "shadow.h"
#include "util/metrics.h"

namespace sessionbench {
namespace {

using wdm::ConnectionId;
using wdm::MulticastRequest;
using wdm::engine::GrowResult;
using wdm::engine::SessionId;
using MoveList = std::span<const std::pair<ConnectionId, ConnectionId>>;

struct WorkloadSpec {
  std::string_view name;
  wdm::ClosParams params;  // n, r, m, k
  std::size_t shards;
  bool repack;
  /// Live sessions, engine-wide, that the fill reaches and churn hovers at.
  std::size_t standing;
  /// Fixed churn after the fill, inside setup_s: it pays the lazy
  /// session-table and slot allocation before anything is timed.
  std::size_t warmup_steps;
  /// Setups before the timed phase, and again after it; setup_s is the
  /// median of all of them. The last one before is the one measured. Each
  /// runs on the next CPU, so a multiple of the CPU count visits each
  /// equally often.
  int setup_reps;
  /// Count metrics cover the first window_steps_per_s x --seconds steps of
  /// the measured stream, which every run completes whatever the host speed,
  /// so they repeat exactly for one seed.
  std::size_t window_steps_per_s;
  /// Theorem 1 holds at this geometry, so every connect must be admitted.
  bool must_admit_all;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"paper_point", {4, 4, 13, 2}, 4, false, 20, 100000, 16, 200000, true},
    {"soak_geometry", {128, 128, 136, 64}, 2, false, 20000, 2000, 4, 4000, false},
    {"below_bound_repack", {4, 4, 4, 2}, 1, true, 16, 100000, 16, 200000, false},
};

// Op mix: the defaults of the repository's churn model (ChurnConfig in
// engine/churn_driver.h). Each step may first probe held sessions with
// stale_probe_fraction, then makes one write: a connect with
// arrival_fraction, else a grow with grow_fraction, else a disconnect, with
// fanouts in `fanout`. ChurnDriver has no standing population; here the
// arrival share flips to 1 - arrival_fraction above it, so the population
// hovers there instead of drifting with host speed.
const wdm::engine::ChurnConfig kChurn{};
/// Length of one measurement slice (see SlicedSeries and measure()).
constexpr std::int64_t kSliceNs = 100'000'000;
/// find_session calls per probe, timed as one region (one call is a few ns,
/// close to the cost of reading the clock).
constexpr std::size_t kLookupBurst = 16;

struct Counts {
  std::uint64_t connects = 0, admitted = 0, repack_admits = 0, repack_moves = 0;
  std::uint64_t disconnects = 0, grows = 0, grow_blocked = 0, lookups = 0;
  /// Repack moves whose new id reads stale: renames the engine never
  /// reported to the caller.
  std::uint64_t unreported_renames = 0;
  /// Repack moves whose old id still reads live.
  std::uint64_t live_old_ids = 0;
  /// Probe lookups of a renamed handle that read stale.
  std::uint64_t wrong_lookups = 0;

  [[nodiscard]] std::uint64_t attempted() const {
    return connects + disconnects + grows + lookups;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return unreported_renames + live_old_ids + wrong_lookups;
  }
};

struct LayerCounts {
  std::uint64_t route_calls = 0, route_blocked = 0;
  std::uint64_t repack_attempts = 0, repack_rescued = 0, repack_moves = 0, repack_rollbacks = 0;
};

struct LayerSamples {
  SlicedSeries find_route, install, release, repack_connect, publish, snapshot_read,
      session_mark, flight_record, counter_add, lookup, shard_of, generate,
      connect_self, disconnect_self, grow_self;

  void close_slice() {
    for (SlicedSeries* series :
         {&find_route, &install, &release, &repack_connect, &publish, &snapshot_read,
          &session_mark, &flight_record, &counter_add, &lookup, &shard_of, &generate,
          &connect_self, &disconnect_self, &grow_self}) {
      series->close_slice();
    }
  }
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------------------
// Mirrors: the engine's lower layers, owned by the benchmark and driven in
// the engine's own call order, so each layer can be timed on its own.
// ---------------------------------------------------------------------------
class Mirror {
 public:
  Mirror(const wdm::engine::EngineConfig& config, double clock_ns)
      : clock_ns_(clock_ns),
        payload_(wdm::obs::EngineHealthSnapshot::encoded_words(config.params.m,
                                                                config.params.r),
                 0),
        rollbacks_(wdm::metrics().counter("repack.rollbacks")) {
    for (std::size_t s = 0; s < config.shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(config, static_cast<std::uint32_t>(s),
                                                payload_.size()));
    }
  }

  LayerSamples samples;
  LayerCounts counts;
  bool recording = false;
  std::string mismatch;

  /// Replays a connect; returns the summed time of the mirrored layer calls.
  double connect(std::size_t shard, const MulticastRequest& request,
                 std::optional<ConnectionId> engine_id, MoveList engine_moved) {
    Shard& m = *shards_[shard];
    double layers = 0.0;
    const double route_ns = find_route(m, request);
    std::optional<ConnectionId> id;
    if (route_) {
      layers += route_ns;
      layers += timed(samples.install, [&] { id = m.sw.network().install(request, *route_); });
    } else if (m.sw.repack_engine() != nullptr) {
      // connect_with_repack re-runs the classic attempt, as the engine's
      // call does, so the find_route above is not subtracted again.
      const std::uint64_t rollbacks_before = rollbacks_.value();
      layers += timed(samples.repack_connect, [&] { id = m.sw.connect_with_repack(request); });
      const MoveList moved = m.sw.repack_engine()->last_moved();
      ++counts.repack_attempts;
      counts.repack_rollbacks += rollbacks_.value() - rollbacks_before;
      if (id) {
        ++counts.repack_rescued;
        counts.repack_moves += moved.size();
      }
      if (!std::equal(moved.begin(), moved.end(), engine_moved.begin(), engine_moved.end())) {
        fail("repack move list differs from the engine's");
      }
    } else {
      layers += route_ns;
    }
    if (id != engine_id) fail("connect decision differs from the engine's");
    if (id) {
      layers += timed(samples.session_mark, [&] {
        m.table.mark_active(wdm::ThreeStageNetwork::slot_of_id(*id),
                            wdm::ThreeStageNetwork::generation_of_id(*id));
      });
    }
    const auto kind = engine_moved.empty() ? wdm::obs::EngineOp::kConnect
                                           : wdm::obs::EngineOp::kRepack;
    const auto outcome = id ? wdm::obs::EngineOpOutcome::kAdmitted
                            : wdm::obs::EngineOpOutcome::kBlocked;
    layers += commit(m, id ? 2 : 1, kind, outcome, id.value_or(0),
                     static_cast<std::uint32_t>(engine_moved.size()));
    return layers;
  }

  double disconnect(std::size_t shard, ConnectionId id, bool engine_ok) {
    Shard& m = *shards_[shard];
    bool ok = false;
    double layers = timed(samples.release, [&] { ok = m.sw.try_disconnect(id); });
    if (ok != engine_ok) fail("disconnect decision differs from the engine's");
    layers += timed(samples.session_mark, [&] {
      m.table.mark_released(wdm::ThreeStageNetwork::slot_of_id(id),
                            wdm::ThreeStageNetwork::generation_of_id(id));
    });
    layers += commit(m, 2, wdm::obs::EngineOp::kDisconnect,
                     wdm::obs::EngineOpOutcome::kAdmitted, id, 0);
    return layers;
  }

  /// Break-before-make, as ShardedEngine::grow_locked does it: release, route
  /// the grown request, and on a block reinstall the original route.
  double grow(std::size_t shard, ConnectionId id, const wdm::WavelengthEndpoint& destination,
              const GrowResult& engine) {
    Shard& m = *shards_[shard];
    const auto* entry = m.sw.network().find_connection(id);
    if (entry == nullptr) {
      fail("grow of a session the mirror does not hold");
      return 0.0;
    }
    const MulticastRequest original = entry->first;
    const wdm::Route original_route = entry->second;
    MulticastRequest grown = original;
    grown.outputs.push_back(destination);

    double layers = timed(samples.release, [&] { m.sw.network().release(id); });
    layers += find_route(m, grown);
    ConnectionId next = 0;
    if (route_) {
      layers += timed(samples.install, [&] { next = m.sw.network().install(grown, *route_); });
    } else {
      layers += timed(samples.install,
                      [&] { next = m.sw.network().install(original, original_route); });
    }
    const auto status = route_ ? GrowResult::Status::kGrown : GrowResult::Status::kBlocked;
    if (status != engine.status || next != engine.connection) {
      fail("grow decision differs from the engine's");
    }
    layers += timed(samples.session_mark, [&] {
      m.table.mark_released(wdm::ThreeStageNetwork::slot_of_id(id),
                            wdm::ThreeStageNetwork::generation_of_id(id));
      m.table.mark_active(wdm::ThreeStageNetwork::slot_of_id(next),
                          wdm::ThreeStageNetwork::generation_of_id(next));
    }, 2);
    layers += commit(m, 2, wdm::obs::EngineOp::kGrow,
                     route_ ? wdm::obs::EngineOpOutcome::kGrown
                            : wdm::obs::EngineOpOutcome::kGrowBlocked,
                     next, 0);
    return layers;
  }

  void lookup(const SessionId* ids, const bool* engine_live, std::size_t count) {
    bool live[kLookupBurst];
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < count; ++i) {
      live[i] = shards_[ids[i].shard]->table.is_active(
          wdm::ThreeStageNetwork::slot_of_id(ids[i].connection),
          wdm::ThreeStageNetwork::generation_of_id(ids[i].connection));
    }
    const std::int64_t t1 = now_ns();
    if (recording) {
      samples.lookup.add((static_cast<double>(t1 - t0) - clock_ns_) /
                         static_cast<double>(count));
    }
    if (!std::equal(live, live + count, engine_live)) fail("lookup differs from the engine's");
  }

 private:
  struct Shard {
    Shard(const wdm::engine::EngineConfig& config, std::uint32_t index, std::size_t words)
        : sw(config.params, config.construction, config.network_model, config.policy),
          slot(words),
          flight(index) {
      if (config.repack.enabled) sw.enable_repack(config.repack);
    }
    wdm::MultistageSwitch sw;
    wdm::obs::SeqlockSnapshotSlot slot;
    wdm::obs::SessionGenTable table;
    wdm::obs::FlightRecorder flight;
  };

  void fail(const char* what) {
    if (mismatch.empty()) mismatch = what;
  }

  /// Times `fn` net of the clock's own cost; records the per-call share.
  template <typename Fn>
  double timed(SlicedSeries& into, Fn&& fn, int calls = 1) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    const double net = static_cast<double>(t1 - t0) - clock_ns_;
    if (recording) into.add(net / calls);
    return net;
  }

  /// The admission check plus Router::find_route, as Router::try_connect
  /// runs them. The public find_route returns a copy of the router's scratch
  /// route, which the engine's path does not make, so the time of one such
  /// copy is measured and taken off. Leaves the route (or nullopt) in route_.
  double find_route(Shard& m, const MulticastRequest& request) {
    route_.reset();
    const std::int64_t t0 = now_ns();
    if (!m.sw.check_admissible(request)) route_ = m.sw.router().find_route(request);
    const std::int64_t t1 = now_ns();
    double copy_ns = 0.0;
    if (route_) {
      const std::int64_t c0 = now_ns();
      wdm::Route copy = *route_;
      keep(copy);
      copy_ns = static_cast<double>(now_ns() - c0) - clock_ns_;
    }
    const double net = static_cast<double>(t1 - t0) - clock_ns_ - copy_ns;
    ++counts.route_calls;
    if (!route_) ++counts.route_blocked;
    if (recording) samples.find_route.add(net);
    return net;
  }

  /// The engine's commit tail: counter adds, a flight record, the health
  /// publish. The header read after it is timed for the read plane only;
  /// no write op reads a snapshot, so it is not part of the returned time.
  double commit(Shard& m, int counter_adds, wdm::obs::EngineOp kind,
                wdm::obs::EngineOpOutcome outcome, ConnectionId id, std::uint32_t detail) {
    double layers = timed(samples.counter_add, [&] {
      for (int i = 0; i < counter_adds; ++i) counter_.add();
    }, counter_adds);
    layers += timed(samples.flight_record, [&] { m.flight.record(kind, outcome, id, detail); });
    layers += timed(samples.publish, [&] { m.slot.publish(payload_.data(), payload_.size()); });
    std::uint64_t header[wdm::obs::EngineHealthSnapshot::kHeaderWords];
    timed(samples.snapshot_read,
          [&] { m.slot.read(header, wdm::obs::EngineHealthSnapshot::kHeaderWords); });
    return layers;
  }

  double clock_ns_;
  std::vector<std::uint64_t> payload_;
  std::vector<std::unique_ptr<Shard>> shards_;
  wdm::Counter counter_;
  wdm::Counter& rollbacks_;
  std::optional<wdm::Route> route_;
};

/// Moves the calling thread to the next CPU of the process's affinity mask
/// on each next(); restores the mask when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
    pin();
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    at_ = (at_ + 1) % cpus_.size();
    pin();
  }

 private:
  /// Best effort: if the kernel refuses, the thread stays where it is and
  /// only the spreading over CPUs is lost.
  void pin() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[at_], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

// ---------------------------------------------------------------------------
// The caller: one closed loop over the engine's public session API.
// ---------------------------------------------------------------------------
class Runner {
 public:
  Runner(const WorkloadSpec& spec, std::uint64_t seed, bool traced, double clock_ns)
      : spec_(spec), seed_(seed), traced_(traced), clock_ns_(clock_ns), rng_(seed) {
    config_.params = spec.params;
    config_.shards = spec.shards;
    config_.repack.enabled = spec.repack;
  }

  /// Build the engine (and mirrors), fill to the standing population and run
  /// the warm-up churn. Every setup of one seed reaches the same state. Call
  /// teardown() first to set up again.
  void setup() {
    engine_ = std::make_unique<wdm::engine::ShardedEngine>(config_);
    if (traced_) mirror_ = std::make_unique<Mirror>(config_, clock_ns_);
    shadow_.reset(*engine_, kChurn.fanout);
    rng_ = wdm::Rng(seed_);
    for (std::size_t tries = 0; shadow_.live() < spec_.standing && tries < 4 * spec_.standing;
         ++tries) {
      if (!connect()) break;
    }
    for (std::size_t i = 0; i < spec_.warmup_steps; ++i) step();
  }

  /// Destroy the engine and mirrors, so a timed setup() does not pay for it.
  void teardown() {
    mirror_.reset();
    engine_.reset();
  }

  /// Start the timed phase: counts restart and samples are recorded. The
  /// counted window is the first `window_steps` steps from here.
  void begin_measure(std::size_t window_steps) {
    counts_ = {};
    engine_ns_ = 0;
    write_ns_ = 0;
    write_ops_ = 0;
    wall_ns_ = 0.0;
    steps_ = 0;
    window_steps_ = window_steps;
    recording_ = true;
    if (mirror_) {
      mirror_->recording = true;
      layer_start_ = mirror_->counts;
    }
  }

  /// Run steps for one slice of kSliceNs, then close the slice.
  void run_slice() {
    const std::int64_t start = now_ns();
    for (;;) {
      step();
      if (++steps_ == window_steps_) {
        window_ = counts_;
        if (mirror_) layer_window_ = delta(mirror_->counts, layer_start_);
      }
      if (steps_ % 8 == 0 && now_ns() - start >= kSliceNs) break;
    }
    close_slice();
    wall_ns_ += static_cast<double>(now_ns() - start);
  }

  [[nodiscard]] bool window_done() const { return steps_ >= window_steps_; }

  void end_measure() {
    recording_ = false;
    if (mirror_) mirror_->recording = false;
  }

  /// End-of-workload checks against the engine's own accounting.
  void finish_checks() {
    try {
      engine_->self_check();
    } catch (const std::exception& e) {
      fail(std::string("self_check: ") + e.what());
    }
    if (engine_->active_sessions() != shadow_.live()) {
      fail("lock-free active_sessions() differs from the caller's live count");
    }
    if (engine_->active_sessions_locked() != shadow_.live()) {
      fail("active_sessions_locked() differs from the caller's live count");
    }
    if (spec_.must_admit_all && blocked_total_ != 0) {
      fail("a connect blocked at the Theorem-1 bound");
    }
    if (mirror_ && !mirror_->mismatch.empty()) fail("mirror: " + mirror_->mismatch);
  }

  [[nodiscard]] bool ok() const { return failure_.empty(); }
  [[nodiscard]] const std::string& failure() const { return failure_; }
  [[nodiscard]] const Counts& window() const { return window_; }
  [[nodiscard]] const LayerCounts& layer_window() const { return layer_window_; }
  [[nodiscard]] Mirror* mirror() { return mirror_.get(); }
  /// Write ops per second of time spent inside engine calls, over the whole
  /// timed phase.
  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(write_ops_) * 1e9 / static_cast<double>(write_ns_);
  }
  /// Share of the timed phase's wall time spent outside engine calls.
  [[nodiscard]] double harness_share() const {
    return 1.0 - static_cast<double>(engine_ns_) / wall_ns_;
  }

  SlicedSeries connect_ns, disconnect_ns, grow_ns, lookup_ns;

 private:
  static LayerCounts delta(const LayerCounts& a, const LayerCounts& b) {
    return {a.route_calls - b.route_calls, a.route_blocked - b.route_blocked,
            a.repack_attempts - b.repack_attempts, a.repack_rescued - b.repack_rescued,
            a.repack_moves - b.repack_moves, a.repack_rollbacks - b.repack_rollbacks};
  }

  void fail(std::string what) {
    if (failure_.empty()) failure_ = std::move(what);
  }

  void note_engine(std::int64_t ns, SlicedSeries* series) {
    if (!recording_) return;
    engine_ns_ += ns;
    if (series != nullptr) {
      write_ns_ += ns;
      ++write_ops_;
      series->add(static_cast<double>(ns));
    }
  }

  void close_slice() {
    connect_ns.close_slice();
    disconnect_ns.close_slice();
    grow_ns.close_slice();
    lookup_ns.close_slice();
    if (mirror_) mirror_->samples.close_slice();
  }

  double net(std::int64_t ns) const { return static_cast<double>(ns) - clock_ns_; }

  /// One step of the op mix (see kChurn). A connect that finds no free
  /// endpoints, or a grow of a session that cannot grow, becomes a
  /// disconnect.
  void step() {
    if (shadow_.live() > 0 && rng_.next_bool(kChurn.stale_probe_fraction)) lookup();
    const double arrival = shadow_.live() < spec_.standing ? kChurn.arrival_fraction
                                                           : 1.0 - kChurn.arrival_fraction;
    if (shadow_.live() == 0 || rng_.next_bool(arrival)) {
      if (connect()) return;
    } else if (rng_.next_bool(kChurn.grow_fraction) && grow()) {
      return;
    }
    if (shadow_.live() > 0) disconnect();
  }

  bool connect() {
    const std::int64_t g0 = now_ns();
    const std::optional<MulticastRequest> request = shadow_.draw_connect(rng_);
    const std::int64_t g1 = now_ns();
    if (!request) return false;
    const std::size_t port = request->input.port;
    const std::size_t shard = shadow_.shard_of(port);
    if (mirror_ && recording_) {
      mirror_->samples.generate.add(net(g1 - g0));
      const std::int64_t s0 = now_ns();
      const std::size_t owner = engine_->shard_of(port);
      const std::int64_t s1 = now_ns();
      keep(owner);
      mirror_->samples.shard_of.add(net(s1 - s0));
    }

    const std::int64_t t0 = now_ns();
    const std::optional<SessionId> session = engine_->connect(*request);
    const std::int64_t t1 = now_ns();
    note_engine(t1 - t0, &connect_ns);
    ++counts_.connects;

    const wdm::repack::RepackEngine* repacker =
        engine_->shard_switch(shard).repack_engine();
    const MoveList moved = repacker == nullptr ? MoveList{} : repacker->last_moved();
    if (mirror_) {
      const double layers = mirror_->connect(
          shard, *request, session ? std::optional(session->connection) : std::nullopt, moved);
      if (recording_) mirror_->samples.connect_self.add(net(t1 - t0) - layers);
    }
    if (!session) {
      ++blocked_total_;
      return true;
    }
    if (session->shard != shard) fail("connect landed on a shard that does not own its port");
    ++counts_.admitted;
    if (!moved.empty()) {
      ++counts_.repack_admits;
      counts_.repack_moves += moved.size();
      const auto s = static_cast<std::uint32_t>(shard);
      for (const auto& [old_id, new_id] : moved) {
        if (!engine_->is_active({s, new_id})) ++counts_.unreported_renames;
        if (engine_->is_active({s, old_id})) ++counts_.live_old_ids;
      }
      if (!shadow_.rename_moved(s, moved)) fail("repack moved a session the caller does not hold");
    }
    shadow_.add(*session, *request);
    if (!engine_->is_active(*session)) fail("an admitted session reads stale");
    return true;
  }

  void disconnect() {
    const std::size_t index = rng_.next_below(shadow_.live());
    const SessionId id = shadow_.held(index).id;
    const std::int64_t t0 = now_ns();
    const bool ok = engine_->disconnect(id);
    const std::int64_t t1 = now_ns();
    note_engine(t1 - t0, &disconnect_ns);
    ++counts_.disconnects;
    if (mirror_) {
      const double layers = mirror_->disconnect(id.shard, id.connection, ok);
      if (recording_) mirror_->samples.disconnect_self.add(net(t1 - t0) - layers);
    }
    if (!ok) fail("disconnect of a held session returned false");
    if (engine_->is_active(id)) fail("a session reads live after its disconnect returned true");
    shadow_.remove(index);
  }

  bool grow() {
    const std::size_t index = rng_.next_below(shadow_.live());
    const std::optional<wdm::WavelengthEndpoint> destination = shadow_.draw_grow(rng_, index);
    if (!destination) return false;
    const SessionId id = shadow_.held(index).id;
    const std::int64_t t0 = now_ns();
    const GrowResult result = engine_->grow(id, *destination);
    const std::int64_t t1 = now_ns();
    note_engine(t1 - t0, &grow_ns);
    ++counts_.grows;
    if (mirror_) {
      const double layers = mirror_->grow(id.shard, id.connection, *destination, result);
      if (recording_) mirror_->samples.grow_self.add(net(t1 - t0) - layers);
    }
    if (result.status == GrowResult::Status::kStaleSession) {
      fail("grow of a held session reported it stale");
      return true;
    }
    const SessionId next{id.shard, result.connection};
    if (!engine_->is_active(next)) fail("a grown session reads stale");
    if (engine_->is_active(id)) fail("a session's id before a grow still reads live");
    if (result.status == GrowResult::Status::kGrown) {
      shadow_.grow(index, *destination);
    } else {
      ++counts_.grow_blocked;
    }
    shadow_.rename(index, next);
    return true;
  }

  void lookup() {
    SessionId ids[kLookupBurst];
    bool renamed[kLookupBurst];
    bool live[kLookupBurst];
    for (std::size_t i = 0; i < kLookupBurst; ++i) {
      const Held& h = shadow_.held(rng_.next_below(shadow_.live()));
      ids[i] = h.id;
      renamed[i] = h.renamed;
    }
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kLookupBurst; ++i) {
      live[i] = engine_->find_session(ids[i]).has_value();
    }
    const std::int64_t t1 = now_ns();
    note_engine(t1 - t0, nullptr);
    if (recording_) lookup_ns.add(net(t1 - t0) / kLookupBurst);
    counts_.lookups += kLookupBurst;
    if (mirror_) mirror_->lookup(ids, live, kLookupBurst);
    for (std::size_t i = 0; i < kLookupBurst; ++i) {
      if (live[i]) continue;
      if (renamed[i]) {
        ++counts_.wrong_lookups;
      } else {
        fail("a held session reads stale");
      }
    }
  }

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  bool traced_;
  double clock_ns_;
  wdm::engine::EngineConfig config_;
  wdm::Rng rng_;
  Shadow shadow_;
  std::unique_ptr<wdm::engine::ShardedEngine> engine_;
  std::unique_ptr<Mirror> mirror_;
  bool recording_ = false;
  Counts counts_, window_;
  LayerCounts layer_start_, layer_window_;
  std::size_t steps_ = 0, window_steps_ = 0;
  std::uint64_t blocked_total_ = 0;
  std::int64_t engine_ns_ = 0;
  std::int64_t write_ns_ = 0;
  std::uint64_t write_ops_ = 0;
  double wall_ns_ = 0.0;
  std::string failure_;
};

/// The timed phase. The runners take turns, one slice each, on one CPU of
/// the process's affinity mask, moving to the next CPU every round. Other
/// tenants of a shared host slow single CPUs, or the whole host, for seconds
/// at a time; rotating spreads a run over every CPU, and taking turns puts
/// two runners' slices under the same host conditions. Ends once `seconds`
/// have passed and every runner has completed its counted window.
void measure(std::initializer_list<Runner*> runners, double seconds, std::size_t window_steps) {
  for (Runner* runner : runners) runner->begin_measure(window_steps);
  CpuRotation cpus;
  const std::int64_t start = now_ns();
  const auto limit = static_cast<std::int64_t>(seconds * 1e9);
  for (;; cpus.next()) {
    for (Runner* runner : runners) runner->run_slice();
    const bool windows_done = std::all_of(runners.begin(), runners.end(),
                                          [](const Runner* r) { return r->window_done(); });
    if (windows_done && now_ns() - start >= limit) break;
  }
  for (Runner* runner : runners) runner->end_measure();
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double rss_mib() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void print_result(bool correct, const Counts& counts, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(counts.attempted()),
              static_cast<unsigned long long>(counts.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

/// The deterministic counts of the window, one line before the result, for
/// check_determinism.py. A traced run adds the mirrors' layer counts.
void print_counts(const Counts& c, const LayerCounts* l = nullptr) {
  std::printf(
      "counts {\"attempted\": %llu, \"connects\": %llu, \"admitted\": %llu, "
      "\"repack_admits\": %llu, \"repack_moves\": %llu, \"grows\": %llu, "
      "\"grow_blocked\": %llu, \"disconnects\": %llu, \"lookups\": %llu, "
      "\"unreported_renames\": %llu, \"live_old_ids\": %llu, \"wrong_lookups\": %llu, "
      "\"failed\": %llu",
      static_cast<unsigned long long>(c.attempted()),
      static_cast<unsigned long long>(c.connects),
      static_cast<unsigned long long>(c.admitted),
      static_cast<unsigned long long>(c.repack_admits),
      static_cast<unsigned long long>(c.repack_moves),
      static_cast<unsigned long long>(c.grows),
      static_cast<unsigned long long>(c.grow_blocked),
      static_cast<unsigned long long>(c.disconnects),
      static_cast<unsigned long long>(c.lookups),
      static_cast<unsigned long long>(c.unreported_renames),
      static_cast<unsigned long long>(c.live_old_ids),
      static_cast<unsigned long long>(c.wrong_lookups),
      static_cast<unsigned long long>(c.failed()));
  if (l != nullptr) {
    std::printf(
        ", \"route_calls\": %llu, \"route_blocked\": %llu, \"repack_attempts\": %llu, "
        "\"repack_rescued\": %llu, \"repack_layer_moves\": %llu, \"repack_rollbacks\": %llu",
        static_cast<unsigned long long>(l->route_calls),
        static_cast<unsigned long long>(l->route_blocked),
        static_cast<unsigned long long>(l->repack_attempts),
        static_cast<unsigned long long>(l->repack_rescued),
        static_cast<unsigned long long>(l->repack_moves),
        static_cast<unsigned long long>(l->repack_rollbacks));
  }
  std::printf("}\n");
}

int run_untraced(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                 double clock_ns, double calib_before) {
  Runner runner(spec, seed, false, clock_ns);
  // Setups are timed before and after the timed phase, so their median
  // spans the whole run rather than its first seconds.
  std::vector<double> setups;
  const auto time_setups = [&] {
    CpuRotation cpus;
    for (int rep = 0; rep < spec.setup_reps; ++rep, cpus.next()) {
      runner.teardown();
      const std::int64_t t0 = now_ns();
      runner.setup();
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  };
  time_setups();
  // Resident memory at the standing population, before the timed phase
  // sizes its per-slice buffers to the host's speed.
  const double rss = rss_mib();
  measure({&runner}, seconds, static_cast<std::size_t>(spec.window_steps_per_s * seconds));
  runner.finish_checks();
  time_setups();
  const double calib_after = measure_calib_ns();

  const Counts& w = runner.window();
  std::fprintf(stderr,
               "%.*s seed=%llu: samples connect=%llu disconnect=%llu grow=%llu lookup=%llu; "
               "harness share %.3f; clock %.1f ns; calib %.0f -> %.0f ns\n",
               static_cast<int>(spec.name.size()), spec.name.data(),
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(runner.connect_ns.count()),
               static_cast<unsigned long long>(runner.disconnect_ns.count()),
               static_cast<unsigned long long>(runner.grow_ns.count()),
               static_cast<unsigned long long>(runner.lookup_ns.count()),
               runner.harness_share(), clock_ns, calib_before, calib_after);
  std::fprintf(stderr, "setups (s, before then after the timed phase):");
  for (const double setup : setups) std::fprintf(stderr, " %.4f", setup);
  std::fprintf(stderr, "\n");
  if (!runner.ok()) std::fprintf(stderr, "CHECK FAILED: %s\n", runner.failure().c_str());
  print_counts(w);
  print_result(runner.ok(), w,
               {{"setup_s", quantile_of(setups, 0.5), "s"},
                {"ops_per_s", runner.ops_per_s(), "1/s"},
                {"connect_p50_us", runner.connect_ns.p50() * 1e-3, "us"},
                {"connect_p90_us", runner.connect_ns.p90() * 1e-3, "us"},
                {"disconnect_p50_us", runner.disconnect_ns.p50() * 1e-3, "us"},
                {"grow_p50_us", runner.grow_ns.p50() * 1e-3, "us"},
                {"lookup_p50_ns", runner.lookup_ns.p50(), "ns"},
                {"admit_rate", ratio(w.admitted, w.connects), "ratio"},
                {"ok_rate", 1.0 - ratio(w.failed(), w.attempted()), "ratio"},
                {"rss_mib", rss, "MiB"}});
  return runner.ok() ? 0 : 1;
}

/// An untraced and a traced runner, each from its own setup of the same
/// seed, take turns slice by slice. trace.overhead_ratio is the traced
/// engine's connect p50 over the untraced one's: the same op stream under
/// the same host conditions, with and without the mirrors and their timers.
int run_traced(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
               double clock_ns, double calib_before) {
  constexpr std::size_t kWindowDivisor = 8;  // each runner gets half the time
  const auto window = static_cast<std::size_t>(spec.window_steps_per_s * seconds) / kWindowDivisor;
  Runner plain(spec, seed, false, clock_ns);
  Runner traced(spec, seed, true, clock_ns);
  plain.setup();
  traced.setup();
  measure({&plain, &traced}, seconds, window);
  plain.finish_checks();
  traced.finish_checks();
  const double calib_after = measure_calib_ns();
  for (const Runner* runner : {&plain, &traced}) {
    if (!runner->ok()) std::fprintf(stderr, "CHECK FAILED: %s\n", runner->failure().c_str());
  }
  const bool correct = plain.ok() && traced.ok();

  const LayerSamples& s = traced.mirror()->samples;
  const LayerCounts& l = traced.layer_window();
  const Counts& w = traced.window();
  print_counts(w, &l);
  print_result(correct, w,
               {{"multistage.find_route_p50_ns", s.find_route.p50(), "ns"},
                {"multistage.find_route_p90_ns", s.find_route.p90(), "ns"},
                {"multistage.install_p50_ns", s.install.p50(), "ns"},
                {"multistage.release_p50_ns", s.release.p50(), "ns"},
                {"multistage.block_rate", ratio(l.route_blocked, l.route_calls), "ratio"},
                {"repack.connect_p50_ns", s.repack_connect.p50(), "ns"},
                {"repack.rescue_rate", ratio(l.repack_rescued, l.repack_attempts), "ratio"},
                {"repack.moves_per_admit", ratio(l.repack_moves, l.repack_rescued), "ratio"},
                {"repack.rollback_rate", ratio(l.repack_rollbacks, l.repack_attempts), "ratio"},
                {"repack.unreported_renames", static_cast<double>(w.unreported_renames), "count"},
                {"obs.publish_p50_ns", s.publish.p50(), "ns"},
                {"obs.snapshot_read_p50_ns", s.snapshot_read.p50(), "ns"},
                {"obs.session_mark_p50_ns", s.session_mark.p50(), "ns"},
                {"obs.flight_record_p50_ns", s.flight_record.p50(), "ns"},
                {"obs.lookup_p50_ns", s.lookup.p50(), "ns"},
                {"util.counter_add_p50_ns", s.counter_add.p50(), "ns"},
                {"engine.connect_self_p50_ns", s.connect_self.p50(), "ns"},
                {"engine.disconnect_self_p50_ns", s.disconnect_self.p50(), "ns"},
                {"engine.grow_self_p50_ns", s.grow_self.p50(), "ns"},
                {"engine.shard_of_p50_ns", s.shard_of.p50(), "ns"},
                {"harness.generate_p50_ns", s.generate.p50(), "ns"},
                {"harness.clock_ns", clock_ns, "ns"},
                {"harness.calib_ns", 0.5 * (calib_before + calib_after), "ns"},
                {"harness.calib_drift", calib_after / calib_before, "ratio"},
                {"harness.wall_share", plain.harness_share(), "ratio"},
                {"trace.overhead_ratio", traced.connect_ns.p50() / plain.connect_ns.p50(), "ratio"}});
  return correct ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "session_bench: %s\nusage: session_bench --workload "
               "<paper_point|soak_geometry|below_bound_repack> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace
}  // namespace sessionbench

int main(int argc, char** argv) {
  using namespace sessionbench;
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (w.name == value) spec = &w;
      }
      if (spec == nullptr) return usage("unknown workload");
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0) || seconds > 120.0) {
        return usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      trace = std::atoi(value);
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        return usage("--trace takes 0 or 1");
      }
    } else {
      return usage("unknown flag");
    }
  }
  if (spec == nullptr) return usage("--workload is required");

  const double clock_ns = measure_clock_ns();
  const double calib_before = measure_calib_ns();
  return trace == 0 ? run_untraced(*spec, seed, seconds, clock_ns, calib_before)
                    : run_traced(*spec, seed, seconds, clock_ns, calib_before);
}
