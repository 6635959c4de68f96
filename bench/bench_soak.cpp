// Million-session soak for the sharded engine (DESIGN.md §3.13).
//
// Four acts, each with its own gate:
//
//   1. Bulk fill: connect unicast sessions (per-lane shifted permutations,
//      so no two sessions contend for an endpoint) until the target count
//      is live. Default geometry n=128, r=128, m=136, k=64 gives 1,048,576
//      input endpoints; the default target fills 1,000,000 of them. The
//      RSS delta across the fill, divided by the session count, must stay
//      under --budget-bytes (read from /proc/self/statm, so the gate is
//      Linux-only and reports "n/a" elsewhere). The empty engine's RSS
//      divided by --shards is printed as the report-only "empty shard"
//      footprint.
//   2. Saturated churn: with the million sessions still standing, the
//      queued ChurnDriver pushes sustained connect/disconnect/grow
//      traffic through the single-writer executor while a reader thread
//      hammers lock-free find_session over the filled ids. The probe's
//      p99 under saturation is compared against an idle baseline measured
//      before the churn -- the lock-free read path must not degrade while
//      every shard queue is busy.
//   3. Scaling sweep: each worker count in --sweep gets a FRESH engine
//      pre-filled to half the target (identical state per row -- reusing
//      one engine would let each row inherit the previous row's leftovers
//      and the columns would stop being comparable). Rows must reproduce
//      row 1's ChurnStats bit-identically; the throughput column is the
//      scaling curve committed to docs/BENCHMARKS.md.
//   4. Drain: every filled session disconnects cleanly, the lock-free
//      session count agrees with the claimed recount, and self_check passes.
//
// Scaling and latency gates are enforced only when the host has >= 8
// hardware threads (like bench_churn: on a 1-core container the sweep is
// flat by design and only the correctness columns carry signal).
//
// WDM_TELEMETRY=<path> attaches a TelemetrySampler to the saturated run.
//
// The engine_soak_smoke ctest runs this binary at ~100k sessions; the
// acceptance soak is the default invocation (raise --churn-ops for
// minutes of sustained churn).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/churn_driver.h"
#include "engine/sharded_engine.h"
#include "multistage/network.h"
#include "obs/telemetry.h"
#include "util/cli.h"
#include "util/metrics.h"
#include "util/table.h"

using namespace wdm;
using namespace wdm::engine;

namespace {

/// Resident set size in bytes, or 0 when /proc/self/statm is unavailable.
std::size_t rss_bytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long total = 0;
  unsigned long resident = 0;
  const int fields = std::fscanf(statm, "%lu %lu", &total, &resident);
  std::fclose(statm);
  if (fields != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

std::vector<std::size_t> parse_sweep(const std::string& text) {
  std::vector<std::size_t> workers;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) workers.push_back(std::stoul(item));
  }
  return workers;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Connect `count` unicast sessions: per-lane shifted permutations over the
/// whole port space, so every endpoint is used at most once and the fill is
/// limited only by routing. Appends the minted ids to `out`.
std::size_t fill_sessions(ShardedEngine& engine, std::size_t lanes,
                          std::size_t count, std::vector<SessionId>& out) {
  const std::size_t ports = engine.port_count();
  std::size_t blocked = 0;
  const std::size_t want = out.size() + count;
  for (std::size_t lane = 0; lane < lanes && out.size() < want; ++lane) {
    for (std::size_t port = 0; port < ports && out.size() < want; ++port) {
      const MulticastRequest request{
          {port, static_cast<Wavelength>(lane)},
          {{(port + 1 + lane) % ports, static_cast<Wavelength>(lane)}}};
      if (const auto session = engine.connect(request)) {
        out.push_back(*session);
      } else {
        ++blocked;
      }
    }
  }
  return blocked;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(argc, argv);
  cli.describe("sessions", "concurrent sessions to fill (default 1000000)");
  cli.describe("shards", "engine shards (default 16)");
  cli.describe("n", "ports per input module (default 128)");
  cli.describe("r", "input/output modules (default 128)");
  cli.describe("m", "middle modules (default 136)");
  cli.describe("k", "wavelengths per fiber (default 64, the per-port cap)");
  cli.describe("churn-ops", "churn ops per shard per run (default 10000)");
  cli.describe("sweep", "comma list of executor worker counts (default 1,2,4,8,16)");
  cli.describe("budget-bytes", "max RSS bytes per filled session (default 4096)");
  if (cli.wants_help()) {
    std::cout << cli.help_text("Million-session soak on the sharded engine");
    return 0;
  }
  try {
    cli.validate();
  } catch (const std::exception& error) {
    std::cerr << "bench_soak: " << error.what() << " (see --help)\n";
    return 2;
  }

  const auto target = static_cast<std::size_t>(cli.get_int("sessions", 1000000));
  const auto budget = static_cast<std::size_t>(cli.get_int("budget-bytes", 4096));
  const auto churn_ops = static_cast<std::size_t>(cli.get_int("churn-ops", 10000));
  const std::vector<std::size_t> sweep =
      parse_sweep(cli.get_string("sweep").value_or("1,2,4,8,16"));

  EngineConfig config;
  config.params = {static_cast<std::size_t>(cli.get_int("n", 128)),
                   static_cast<std::size_t>(cli.get_int("r", 128)),
                   static_cast<std::size_t>(cli.get_int("m", 136)),
                   static_cast<std::size_t>(cli.get_int("k", 64))};
  config.shards = static_cast<std::size_t>(cli.get_int("shards", 16));
  const std::size_t endpoints = config.params.port_count() * config.params.k;
  if (endpoints < target) {
    std::cerr << "geometry has " << endpoints
              << " input endpoints; cannot hold " << target << " sessions\n";
    return 1;
  }

  print_banner(std::cout, "Sharded engine soak: fill, budget, saturate, drain");
  std::cout << "\nEngine: " << config.shards << " shards x "
            << config.params.to_string() << " (" << endpoints
            << " input endpoints)\nTarget: " << target
            << " concurrent sessions, budget " << budget
            << " RSS bytes/session.\n\n";

  bool ok = true;
  const std::size_t cores = std::thread::hardware_concurrency();
  const bool enforce_parallel_gates = cores >= 8;
  if (!enforce_parallel_gates) {
    std::cout << "note: " << cores << " hardware thread(s) -- scaling and "
              << "latency gates are report-only on this host.\n\n";
  }

  ChurnConfig churn;
  churn.ops_per_shard = churn_ops;
  churn.batch = 64;
  churn.queued = true;
  churn.queue_depth = 1024;

  // ---- Act 1: bulk fill under an RSS budget ----------------------------
  const std::size_t rss_before = rss_bytes();
  ShardedEngine engine(config);
  const std::size_t rss_engine = rss_bytes();

  std::vector<SessionId> filled;
  filled.reserve(target);
  const auto fill_start = std::chrono::steady_clock::now();
  const std::size_t fill_blocked =
      fill_sessions(engine, config.params.k, target, filled);
  const double fill_seconds = seconds_since(fill_start);
  const std::size_t rss_filled = rss_bytes();

  const bool fill_ok = filled.size() >= target &&
                       engine.active_sessions() == filled.size();
  ok = ok && fill_ok;
  std::cout << "fill: " << filled.size() << " sessions in " << fill_seconds
            << " s (" << static_cast<std::size_t>(
                             static_cast<double>(filled.size()) / fill_seconds)
            << " connects/s, " << fill_blocked << " blocked)"
            << (fill_ok ? "" : "  FAIL") << "\n";

  if (rss_filled > 0 && rss_engine > 0 && !filled.empty()) {
    const std::size_t per_session = (rss_filled - rss_engine) / filled.size();
    const bool budget_ok = per_session <= budget;
    ok = ok && budget_ok;
    std::cout << "memory: engine base "
              << (rss_engine - rss_before) / (1024 * 1024) << " MiB, fill +"
              << (rss_filled - rss_engine) / (1024 * 1024) << " MiB = "
              << per_session << " bytes/session (budget " << budget << ")"
              << (budget_ok ? "" : "  FAIL") << "\n";
    // Report-only: what one shard costs before it holds a session.
    std::cout << "memory: empty shard: "
              << (rss_engine - rss_before) / config.shards / 1024
              << " KiB (engine base / " << config.shards << " shards)\n";
  } else {
    std::cout << "memory: /proc/self/statm unavailable -- budget gate n/a\n";
  }

  // ---- Act 2: saturated churn vs the lock-free probe -------------------
  TimerStat& idle_timer = metrics().timer("soak.find_session_idle_ns");
  TimerStat& churn_timer = metrics().timer("soak.find_session_churn_ns");
  constexpr std::size_t kIdleProbes = 200000;
  std::size_t misdecoded = 0;
  for (std::size_t i = 0; i < kIdleProbes; ++i) {
    const SessionId id = filled[(i * 7919) % filled.size()];
    ScopedTimer timer(idle_timer);
    const auto probe = engine.find_session(id);
    if (!probe || probe->slot != ThreeStageNetwork::slot_of_id(id.connection)) {
      ++misdecoded;
    }
  }
  ok = ok && misdecoded == 0;

  const std::size_t widest = sweep.empty() ? 4 : *std::max_element(sweep.begin(), sweep.end());
  {
    churn.workers = widest;
    ChurnDriver driver(engine, churn);
    ThreadPool pool(1);  // queued mode submits from the calling thread

    obs::TelemetrySampler sampler(engine, {std::chrono::milliseconds(10), true});
    const char* telemetry_path = std::getenv("WDM_TELEMETRY");
    const bool sample = telemetry_path != nullptr && *telemetry_path != '\0';
    if (sample) sampler.start();

    std::atomic<bool> started{false};
    std::atomic<bool> done{false};
    std::thread prober([&] {
      std::size_t at = 0;
      const auto probe_once = [&] {
        const SessionId id = filled[at % filled.size()];
        at += 7919;  // co-prime stride: sweep the table, not one hot line
        ScopedTimer timer(churn_timer);
        (void)engine.find_session(id);
      };
      probe_once();
      started.store(true, std::memory_order_release);
      started.notify_one();
      while (!done.load(std::memory_order_relaxed)) probe_once();
    });
    // Start handshake: the churn begins only after the first probe, so the
    // prober is already running when the queues saturate.
    started.wait(false, std::memory_order_acquire);
    const auto start = std::chrono::steady_clock::now();
    const ChurnStats stats = driver.run(pool);
    const double wall = seconds_since(start);
    done.store(true, std::memory_order_relaxed);
    prober.join();
    if (sample) {
      sampler.stop();
      if (sampler.write_file(telemetry_path)) {
        std::cout << "wrote " << telemetry_path << " ("
                  << sampler.sample_count() << " telemetry samples)\n";
      }
    }
    ok = ok && stats.total.stale_accepted == 0;
    std::cout << "saturated churn: " << stats.total.sim.steps
              << " ops across " << config.shards << " queues in " << wall
              << " s at " << widest << " workers ("
              << stats.total.sim.admitted << " admitted, "
              << stats.total.stale_rejected << " stale rejected)\n";
  }

  if (metrics_enabled()) {
    const auto idle_p99 = static_cast<double>(idle_timer.percentile_ns(0.99));
    const auto churn_p99 = static_cast<double>(churn_timer.percentile_ns(0.99));
    const bool p99_ok = churn_p99 <= idle_p99 * 5.0 + 2000.0;
    std::cout << "find_session p99: idle " << idle_p99 << " ns, saturated "
              << churn_p99 << " ns"
              << (p99_ok                   ? ""
                  : enforce_parallel_gates ? "  FAIL"
                                           : "  (over budget; report-only)")
              << "\n";
    if (enforce_parallel_gates) ok = ok && p99_ok;
  }

  // ---- Act 3: scaling sweep, fresh half-full engine per row ------------
  // Every row starts from identical state (same fill, same seed), so the
  // ChurnStats must match row 1 bit-for-bit and the throughput column is a
  // fair scaling curve. Reusing one engine would leak each row's leftovers
  // into the next and quietly change what the later rows measure.
  std::cout << "\nscaling sweep: fresh engine per row, " << target / 2
            << " sessions pre-filled, " << churn_ops << " ops/shard.\n\n";
  Table table({"workers", "wall s", "ops/s", "speedup", "admitted",
               "stale rej", "identical"});
  double base_wall = 0.0;
  double best_speedup = 1.0;
  ChurnStats reference;
  bool first_row = true;
  for (const std::size_t workers : sweep) {
    ShardedEngine row_engine(config);
    std::vector<SessionId> row_fill;
    row_fill.reserve(target / 2);
    fill_sessions(row_engine, config.params.k, target / 2, row_fill);
    churn.workers = workers;
    ChurnDriver driver(row_engine, churn);
    ThreadPool pool(1);
    const auto start = std::chrono::steady_clock::now();
    const ChurnStats stats = driver.run(pool);
    const double wall = seconds_since(start);

    if (first_row) reference = stats;
    const bool identical = stats == reference;
    ok = ok && identical && stats.total.stale_accepted == 0;
    if (first_row) base_wall = wall;
    const double speedup = base_wall / wall;
    if (workers <= 8) best_speedup = std::max(best_speedup, speedup);
    table.add(workers, wall,
              static_cast<double>(stats.total.sim.steps) / wall,
              speedup, stats.total.sim.admitted, stats.total.stale_rejected,
              first_row ? "ref" : (identical ? "yes" : "NO"));
    first_row = false;
  }
  table.print(std::cout);
  if (sweep.size() > 1) {
    const bool scaling_ok = best_speedup >= 4.0;
    std::cout << "scaling: best speedup at <= 8 workers = " << best_speedup
              << "x"
              << (scaling_ok               ? ""
                  : enforce_parallel_gates ? "  FAIL (need >= 4x)"
                                           : "  (single-core host; report-only)")
              << "\n";
    if (enforce_parallel_gates) ok = ok && scaling_ok;
  }

  // ---- Act 4: drain ----------------------------------------------------
  const auto drain_start = std::chrono::steady_clock::now();
  std::size_t drained = 0;
  for (const SessionId id : filled) drained += engine.disconnect(id) ? 1 : 0;
  const double drain_seconds = seconds_since(drain_start);
  const bool drain_ok =
      drained == filled.size() &&
      engine.active_sessions() == engine.active_sessions_locked();
  ok = ok && drain_ok;
  engine.self_check();
  std::cout << "\ndrain: " << drained << " disconnects in " << drain_seconds
            << " s; " << engine.active_sessions()
            << " churn leftovers remain (lock-free == locked count: "
            << (drain_ok ? "yes" : "NO") << ")\n";

  std::cout << (ok ? "\nOK: soak held the budget, the determinism contract, "
                     "and the read-path latency.\n"
                   : "\nFAIL: at least one soak gate failed.\n");
  return ok ? 0 : 1;
}
