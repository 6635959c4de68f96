// Steady-state allocation audit for the routing hot path.
//
// The PR contract for the bitmask hot path is that once a switch has warmed
// up -- scratch buffers sized, connection slots and their nested vectors
// grown to the workload's high-water mark -- a try_connect/disconnect churn
// loop performs ZERO heap allocations: find_route runs on router scratch,
// install reuses slot storage, release only flips occupancy state.
//
// This test owns the global allocator (each test file is its own executable,
// so the override is process-wide but test-local): every operator new bumps
// an atomic, and the measured passes assert the count does not move. The
// workload script (requests, churn decisions) is pre-generated so the
// measured region contains only switch calls, and each pass replays the
// identical deterministic trajectory from an empty network. Because every
// buffer in the switch (scratch, slot vectors, pooled branches/legs) only
// ever grows, repeated passes converge to zero allocations; warm-up runs
// until one full pass allocates nothing, then the measured passes must stay
// at zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "engine/sharded_engine.h"
#include "faults/fault_model.h"
#include "multistage/builder.h"
#include "repack/repack.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* ptr = std::malloc(size > 0 ? size : 1)) return ptr;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  ++g_allocations;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* ptr = std::aligned_alloc(alignment, rounded > 0 ? rounded : alignment)) {
    return ptr;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size > 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size > 0 ? size : 1);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace wdm {
namespace {

struct Op {
  bool connect = false;
  MulticastRequest request;   // valid when connect
  std::size_t victim_rank = 0;  // index into the live set, mod its size
};

/// Deterministic churn script over the given geometry. Requests may repeat
/// ports/lanes and occasionally be inadmissible or blocked -- rejected
/// connects are part of the hot path too.
std::vector<Op> make_script(std::size_t ports, std::size_t lanes, Rng& rng,
                            int steps) {
  std::vector<Op> script;
  script.reserve(static_cast<std::size_t>(steps));
  for (int step = 0; step < steps; ++step) {
    Op op;
    op.connect = rng.next_bool(0.6);
    if (op.connect) {
      op.request.input = {rng.next_below(ports),
                          static_cast<Wavelength>(rng.next_below(lanes))};
      const std::size_t fanout = 1 + rng.next_below(4);
      for (std::size_t i = 0; i < fanout; ++i) {
        op.request.outputs.push_back(
            {rng.next_below(ports),
             static_cast<Wavelength>(rng.next_below(lanes))});
      }
    } else {
      op.victim_rank = rng.next_below(1u << 20);
    }
    script.push_back(std::move(op));
  }
  return script;
}

/// Replay the script from an empty network back to an empty network. The
/// trajectory is identical every pass, so capacities grown in early passes
/// cover all later ones. `live` is caller-owned so its capacity persists.
void run_pass(MultistageSwitch& sw, const std::vector<Op>& script,
              std::vector<ConnectionId>& live) {
  for (const Op& op : script) {
    if (op.connect) {
      if (const auto id = sw.try_connect(op.request)) live.push_back(*id);
    } else if (!live.empty()) {
      const std::size_t victim = op.victim_rank % live.size();
      sw.disconnect(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
  }
  for (const ConnectionId id : live) sw.disconnect(id);
  live.clear();
}

/// Warm up until one full pass performs zero allocations (the capacity
/// fixed point; slot-reuse order permutes request shapes across slots, so
/// the pools take a few passes to absorb every shape), then assert two more
/// passes stay allocation-free. A switch that allocates per call never
/// reaches the fixed point and fails the warm-up assertion. `pass_fn` is
/// the replay flavor under audit.
template <typename Pass>
void warm_up_then_expect_no_allocations(MultistageSwitch& sw,
                                        const std::vector<Op>& script,
                                        std::vector<ConnectionId>& live,
                                        Pass&& pass_fn) {
  constexpr int kMaxWarmupPasses = 40;
  bool converged = false;
  for (int pass = 0; pass < kMaxWarmupPasses && !converged; ++pass) {
    const std::size_t before = g_allocations.load();
    pass_fn(sw, script, live);
    converged = g_allocations.load() == before;
  }
  ASSERT_TRUE(converged)
      << "no allocation-free pass within " << kMaxWarmupPasses
      << " warm-ups: the hot path allocates in steady state";

  for (int pass = 0; pass < 2; ++pass) {
    const std::size_t before = g_allocations.load();
    pass_fn(sw, script, live);
    EXPECT_EQ(g_allocations.load() - before, 0u) << "measured pass " << pass;
  }
}

void warm_up_then_expect_no_allocations(MultistageSwitch& sw,
                                        const std::vector<Op>& script,
                                        std::vector<ConnectionId>& live) {
  warm_up_then_expect_no_allocations(sw, script, live, run_pass);
}

TEST(HotPathAllocations, SteadyStateChurnIsAllocationFree) {
  // Metrics stay ON: the claim covers the instrumented path the benches
  // measure (counters, timers, and histogram records are fixed-size
  // atomics). Tracing stays off, its default.
  set_metrics_enabled(true);

  auto sw = MultistageSwitch::nonblocking(4, 8, 4, Construction::kMswDominant,
                                          MulticastModel::kMSW);
  Rng rng(0xA110C);
  const std::vector<Op> script =
      make_script(sw.port_count(), sw.lane_count(), rng, 2000);

  std::vector<ConnectionId> live;
  live.reserve(script.size());
  warm_up_then_expect_no_allocations(sw, script, live);
}

TEST(HotPathAllocations, TwoWordRowsWithFaultsAreAllocationFree) {
  // The row gather at m > 64 (every middle-stage row spans two words) with
  // an active fault model, so the rows carry the failed lanes: they are
  // sized at construction, and attach re-derives them in place.
  set_metrics_enabled(true);

  MultistageSwitch sw(ClosParams{4, 8, 70, 4}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  FaultModel faults(sw.network().params());
  faults.fail_middle(3);
  faults.fail({FaultComponentKind::kLink12, 1, 66, 0});
  faults.fail({FaultComponentKind::kLink23Lane, 65, 2, 1});
  sw.network().attach_fault_model(&faults);
  Rng rng(0xA110C);
  const std::vector<Op> script =
      make_script(sw.port_count(), sw.lane_count(), rng, 2000);

  std::vector<ConnectionId> live;
  live.reserve(script.size());
  warm_up_then_expect_no_allocations(sw, script, live);
}

TEST(HotPathAllocations, FaultChangeMidChurnIsAllocationFree) {
  // A middle fails a third of the way through each pass and is repaired at
  // two thirds, inside the counted window, at m > 64 (two-word rows). Each
  // change moves the fault epoch, so the next route re-derives every
  // middle-stage row; that rebuild must write into the rows' storage.
  set_metrics_enabled(true);

  MultistageSwitch sw(ClosParams{4, 8, 70, 4}, Construction::kMswDominant,
                      MulticastModel::kMSW);
  FaultModel faults(sw.network().params());
  sw.network().attach_fault_model(&faults);
  Rng rng(0xFA17);
  const std::vector<Op> script =
      make_script(sw.port_count(), sw.lane_count(), rng, 2000);
  const std::uint64_t epoch = faults.epoch();

  std::vector<ConnectionId> live;
  live.reserve(script.size());
  warm_up_then_expect_no_allocations(
      sw, script, live,
      [&faults](MultistageSwitch& s, const std::vector<Op>& ops,
                std::vector<ConnectionId>& l) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
          if (i == ops.size() / 3) faults.fail_middle(0);
          if (i == 2 * ops.size() / 3) faults.repair_middle(0);
          const Op& op = ops[i];
          if (op.connect) {
            if (const auto id = s.try_connect(op.request)) l.push_back(*id);
          } else if (!l.empty()) {
            const std::size_t victim = op.victim_rank % l.size();
            s.disconnect(l[victim]);
            l[victim] = l.back();
            l.pop_back();
          }
        }
        for (const ConnectionId id : l) s.disconnect(id);
        l.clear();
      });
  EXPECT_GT(faults.epoch(), epoch + 4);  // warm-up plus two measured passes
  sw.network().self_check();
}

TEST(HotPathAllocations, RepackEnabledIdleEngineStaysAllocationFree) {
  // Rearrangeable mode's zero-cost contract (DESIGN.md §3.12): with a repack
  // engine attached and enabled but never engaging -- the switch is sized at
  // the Theorem 1 bound, so nothing blocks -- connect_with_repack churn is
  // the classic hot path plus one branch, and must stay allocation-free in
  // steady state. (Engaged repacks DO allocate: planning is off-path.)
  set_metrics_enabled(true);

  auto sw = MultistageSwitch::nonblocking(4, 8, 4, Construction::kMswDominant,
                                          MulticastModel::kMSW);
  sw.enable_repack(repack::RepackPolicy{});
  Rng rng(0xA110C);
  const std::vector<Op> script =
      make_script(sw.port_count(), sw.lane_count(), rng, 2000);

  std::vector<ConnectionId> live;
  live.reserve(script.size());
  warm_up_then_expect_no_allocations(
      sw, script, live,
      [](MultistageSwitch& s, const std::vector<Op>& ops,
         std::vector<ConnectionId>& l) {
        for (const Op& op : ops) {
          if (op.connect) {
            if (const auto id = s.connect_with_repack(op.request)) {
              l.push_back(*id);
            }
          } else if (!l.empty()) {
            const std::size_t victim = op.victim_rank % l.size();
            s.disconnect(l[victim]);
            l[victim] = l.back();
            l.pop_back();
          }
        }
        for (const ConnectionId id : l) s.disconnect(id);
        l.clear();
      });
}

TEST(HotPathAllocations, MawDominantChurnIsAllocationFreeToo) {
  // Same audit through the MAW-dominant code path (lane conversion, per-link
  // free-lane picks), which exercises different branches of find_route.
  set_metrics_enabled(true);

  auto sw = MultistageSwitch::nonblocking(3, 6, 5, Construction::kMawDominant,
                                          MulticastModel::kMAW);
  Rng rng(0xBEEF);
  const std::vector<Op> script =
      make_script(sw.port_count(), sw.lane_count(), rng, 1500);

  std::vector<ConnectionId> live;
  live.reserve(script.size());
  warm_up_then_expect_no_allocations(sw, script, live);
}

TEST(HotPathAllocations, SteadyStateEngineGrowIsAllocationFree) {
  // ShardedEngine::grow, grown outcome: the shard keeps the session's
  // record words and the grown request in scratch it reuses, and the
  // break-before-make reroute runs on the router's scratch, so once warm a
  // grow allocates nothing. Only the grow calls are counted; each pass
  // connects, grows and disconnects the same sessions at the Theorem 1
  // bound, where no grow blocks.
  set_metrics_enabled(true);

  engine::EngineConfig config;
  config.params = nonblocking_params(4, 8, 4, Construction::kMswDominant);
  config.shards = 1;
  engine::ShardedEngine engine(config);
  const std::size_t half = config.params.port_count() / 2;
  std::vector<engine::SessionId> sessions;
  sessions.reserve(half);

  const auto grow_pass = [&] {
    std::size_t allocations = 0;
    std::size_t grown = 0;
    // Session i delivers to port i, and its grow adds port half + i.
    for (std::size_t port = 0; port < half; ++port) {
      if (const auto session = engine.connect({{port, 0}, {{port, 0}}})) {
        sessions.push_back(*session);
      }
    }
    EXPECT_EQ(sessions.size(), half) << "a connect blocked at the bound";
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const std::size_t before = g_allocations.load();
      const engine::GrowResult result = engine.grow(sessions[i], {half + i, 0});
      allocations += g_allocations.load() - before;
      if (result.status == engine::GrowResult::Status::kGrown) ++grown;
      sessions[i].connection = result.connection;
    }
    for (const engine::SessionId& session : sessions) (void)engine.disconnect(session);
    EXPECT_EQ(grown, half) << "a grow did not come back kGrown";
    sessions.clear();
    return allocations;
  };

  constexpr int kMaxWarmupPasses = 40;
  bool converged = false;
  for (int pass = 0; pass < kMaxWarmupPasses && !converged; ++pass) {
    converged = grow_pass() == 0;
  }
  ASSERT_TRUE(converged) << "no allocation-free grow pass within " << kMaxWarmupPasses
                         << " warm-ups: grow allocates in steady state";
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(grow_pass(), 0u) << "measured pass " << pass;
  }
}

TEST(HotPathAllocations, HealthSnapshotReadAllocatesOnlyItsBuffer) {
  // ShardedEngine::health_snapshot copies the seqlock payload into one
  // buffer sized from the geometry, and decoding hands that buffer over as
  // the snapshot's middle_busy: one allocation per read.
  set_metrics_enabled(true);
  engine::EngineConfig config;
  config.params = nonblocking_params(4, 4, 2, Construction::kMswDominant);
  config.shards = 1;
  engine::ShardedEngine engine(config);
  ASSERT_TRUE(engine.connect({{0, 0}, {{1, 0}, {6, 0}}}).has_value());
  (void)engine.health_snapshot(0);  // registers nothing new from here on

  const std::size_t before = g_allocations.load();
  const obs::EngineHealthSnapshot snapshot = engine.health_snapshot(0);
  EXPECT_EQ(g_allocations.load() - before, 1u);
  EXPECT_EQ(snapshot.middle_busy.size(), config.params.m);
  EXPECT_EQ(snapshot.sessions, 1u);
  EXPECT_TRUE(snapshot.consistent());
}

}  // namespace
}  // namespace wdm
