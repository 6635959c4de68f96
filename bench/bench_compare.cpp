// bench_compare: the perf regression gate over BENCH_results.json.
//
// Diffs a freshly produced artifact against a committed baseline and exits
// nonzero when the trajectory regressed — wired as a ctest (see
// tools/check_bench_regression), so "make the router slower" fails the
// tier-1 suite the same way "make the router wrong" does.
//
// Three layers of checks:
//   1. Structural (always): both files parse, the current artifact is
//      schema wdmcast-bench/2, every baseline benchmark still exists, and
//      every matched benchmark reports ok=true.
//   2. Numeric (same-size runs only): per-benchmark ratios current/baseline
//      for wall_ms, selected counters (work done, e.g. middle-stage probes),
//      and selected timer p99s, each with a noise floor below which the
//      metric is too small to compare meaningfully.
//   3. --tiny-safe: structural checks only. Used when the fresh run is
//      --tiny but the committed baseline is full-size: the numbers are not
//      comparable, the structure and invariants still are. Numeric checks
//      also auto-skip when the two artifacts' "tiny" flags differ.
//
// Thresholds come from tools/bench_thresholds.json (--thresholds=<path>,
// required): the file is the only copy, every field must be present.
//
// Flags: --baseline=<path> --current=<path> --thresholds=<path>
//        [--tiny-safe] [--self-test]
// Exit: 0 = no regression, 1 = regression detected, 2 = usage/parse error.
//
// --self-test exercises the comparator against synthetic artifacts (one
// clean pair, then one regression per check) and exits 0 iff every case
// behaves — the ctest guard that the gate itself cannot rot into a no-op.
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/json_lite.h"

using namespace wdm;

namespace {

struct Thresholds {
  double wall_ms_ratio = 0;  // current/baseline wall clock
  double min_wall_ms = 0;    // below this the wall clock is noise
  double p99_ratio = 0;      // current/baseline timer p99
  double min_p99_ns = 0;     // below this the p99 is noise
  double min_counter = 0;    // below this a counter is too small to ratio
  // Counters gated per-name (work metrics: more of these = slower even when
  // wall clock is too noisy to see it).
  std::map<std::string, double> counter_ratios;
  // Timers whose p99 is gated.
  std::vector<std::string> p99_timers;
};

/// Every field is required: a missing key throws (exit 2), so a thresholds
/// file can never silently fall back to a value kept somewhere else.
Thresholds load_thresholds(const JsonValue& root) {
  Thresholds t;
  t.wall_ms_ratio = root.at("wall_ms_ratio").as_number();
  t.min_wall_ms = root.at("min_wall_ms").as_number();
  t.p99_ratio = root.at("p99_ratio").as_number();
  t.min_p99_ns = root.at("min_p99_ns").as_number();
  t.min_counter = root.at("min_counter").as_number();
  for (const auto& [name, ratio] : root.at("counter_ratios").as_object()) {
    t.counter_ratios.emplace(name, ratio.as_number());
  }
  for (const JsonValue& name : root.at("p99_timers").as_array()) {
    t.p99_timers.push_back(name.as_string());
  }
  return t;
}

const JsonValue* find_benchmark(const JsonValue& root, const std::string& name) {
  for (const JsonValue& entry : root.at("benchmarks").as_array()) {
    if (entry.at("name").as_string() == name) return &entry;
  }
  return nullptr;
}

/// Compare two parsed artifacts. Returns the number of failed checks;
/// explanations go to `log`.
std::size_t compare_artifacts(const JsonValue& baseline, const JsonValue& current,
                              const Thresholds& t, bool tiny_safe,
                              std::ostream& log) {
  std::size_t failures = 0;
  auto fail = [&](const std::string& message) {
    log << "REGRESSION: " << message << "\n";
    ++failures;
  };

  // --- structural -----------------------------------------------------------
  const std::string baseline_schema = baseline.at("schema").as_string();
  if (baseline_schema != "wdmcast-bench/1" && baseline_schema != "wdmcast-bench/2") {
    fail("baseline has unknown schema '" + baseline_schema + "'");
    return failures;
  }
  if (current.at("schema").as_string() != "wdmcast-bench/2") {
    fail("current artifact is not schema wdmcast-bench/2");
    return failures;
  }

  const bool baseline_tiny = baseline.at("tiny").as_bool();
  const bool current_tiny = current.at("tiny").as_bool();
  const bool numeric = !tiny_safe && baseline_tiny == current_tiny;
  if (!numeric) {
    log << "note: numeric thresholds skipped ("
        << (tiny_safe ? "--tiny-safe" : "tiny flags differ")
        << "); structural checks only\n";
  }

  for (const JsonValue& base_entry : baseline.at("benchmarks").as_array()) {
    const std::string name = base_entry.at("name").as_string();
    const JsonValue* cur_entry = find_benchmark(current, name);
    if (cur_entry == nullptr) {
      fail("benchmark '" + name + "' disappeared from the current artifact");
      continue;
    }
    if (!cur_entry->at("ok").as_bool()) {
      fail("benchmark '" + name + "' reports ok=false");
    }
    if (!numeric) continue;

    // --- wall clock ---------------------------------------------------------
    const double base_wall = base_entry.at("wall_ms").as_number();
    const double cur_wall = cur_entry->at("wall_ms").as_number();
    if (base_wall >= t.min_wall_ms && cur_wall > base_wall * t.wall_ms_ratio) {
      std::ostringstream os;
      os << name << ": wall_ms " << base_wall << " -> " << cur_wall
         << " (ratio " << cur_wall / base_wall << " > " << t.wall_ms_ratio
         << ")";
      fail(os.str());
    }

    // --- work counters ------------------------------------------------------
    const JsonObject& base_counters =
        base_entry.at("metrics").at("counters").as_object();
    const JsonObject& cur_counters =
        cur_entry->at("metrics").at("counters").as_object();
    for (const auto& [counter, ratio_limit] : t.counter_ratios) {
      const auto base_it = base_counters.find(counter);
      const auto cur_it = cur_counters.find(counter);
      if (base_it == base_counters.end() || cur_it == cur_counters.end()) {
        continue;  // absent (zero-trimmed) on either side: nothing to ratio
      }
      const double base_value = base_it->second.as_number();
      const double cur_value = cur_it->second.as_number();
      if (base_value < t.min_counter) continue;
      if (cur_value > base_value * ratio_limit) {
        std::ostringstream os;
        os << name << ": counter " << counter << " " << base_value << " -> "
           << cur_value << " (ratio " << cur_value / base_value << " > "
           << ratio_limit << ")";
        fail(os.str());
      }
    }

    // --- latency tails ------------------------------------------------------
    const JsonObject& base_timers =
        base_entry.at("metrics").at("timers").as_object();
    const JsonObject& cur_timers =
        cur_entry->at("metrics").at("timers").as_object();
    for (const std::string& timer : t.p99_timers) {
      const auto base_it = base_timers.find(timer);
      const auto cur_it = cur_timers.find(timer);
      if (base_it == base_timers.end() || cur_it == cur_timers.end()) continue;
      // Schema /1 baselines carry no percentiles; skip gracefully.
      const JsonValue* base_p99 = base_it->second.find("p99_ns");
      const JsonValue* cur_p99 = cur_it->second.find("p99_ns");
      if (base_p99 == nullptr || cur_p99 == nullptr) continue;
      const double base_value = base_p99->as_number();
      const double cur_value = cur_p99->as_number();
      if (base_value < t.min_p99_ns) continue;
      if (cur_value > base_value * t.p99_ratio) {
        std::ostringstream os;
        os << name << ": " << timer << " p99_ns " << base_value << " -> "
           << cur_value << " (ratio " << cur_value / base_value << " > "
           << t.p99_ratio << ")";
        fail(os.str());
      }
    }
  }
  return failures;
}

std::optional<JsonValue> parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_compare: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_json(buffer.str());
  } catch (const std::exception& error) {
    std::cerr << "bench_compare: " << path << ": " << error.what() << "\n";
    return std::nullopt;
  }
}

// ---- self-test ------------------------------------------------------------

/// Minimal schema-/2 artifact with one "routing" benchmark whose knobs the
/// self-test perturbs.
std::string synthetic_artifact(bool tiny, bool ok, double wall_ms,
                               double middle_probes, double p99_ns,
                               const char* name = "routing_msw_dominant") {
  std::ostringstream os;
  os << "{\"schema\":\"wdmcast-bench/2\",\"git\":\"selftest\","
     << "\"generated_utc\":\"2026-01-01T00:00:00Z\",\"threads\":1,"
     << "\"tiny\":" << (tiny ? "true" : "false") << ",\"benchmarks\":[{"
     << "\"name\":\"" << name << "\",\"params\":{\"n\":4},"
     << "\"ok\":" << (ok ? "true" : "false") << ",\"wall_ms\":" << wall_ms
     << ",\"metrics\":{\"counters\":{\"routing.middle_probes\":" << middle_probes
     << ",\"routing.route_attempts\":7000},\"gauges\":{},\"histograms\":{},"
     << "\"timers\":{\"routing.find_route\":{\"count\":7000,"
     << "\"total_ns\":12000000,\"max_ns\":900000,\"p50_ns\":1700,"
     << "\"p90_ns\":4300,\"p99_ns\":" << p99_ns << "}}}}]}";
  return os.str();
}

int run_self_test() {
  // Synthetic thresholds: the self-test checks the comparator's logic, not
  // the committed values in tools/bench_thresholds.json.
  Thresholds t;
  t.wall_ms_ratio = 1.6;
  t.min_wall_ms = 5.0;
  t.p99_ratio = 3.0;
  t.min_p99_ns = 20000.0;
  t.min_counter = 100.0;
  t.counter_ratios = {{"routing.middle_probes", 1.3},
                      {"routing.route_attempts", 1.2}};
  t.p99_timers = {"routing.find_route"};
  struct Case {
    const char* label;
    std::string baseline;
    std::string current;
    bool tiny_safe;
    bool expect_regression;
  };
  const std::string healthy = synthetic_artifact(false, true, 50.0, 90000, 50000);
  const std::vector<Case> cases = {
      {"identical artifacts pass", healthy, healthy, false, false},
      {"mild drift within thresholds passes", healthy,
       synthetic_artifact(false, true, 55.0, 95000, 60000), false, false},
      {"3x wall_ms fails", healthy,
       synthetic_artifact(false, true, 150.0, 90000, 50000), false, true},
      {"2x middle_probes fails", healthy,
       synthetic_artifact(false, true, 50.0, 180000, 50000), false, true},
      {"5x find_route p99 fails", healthy,
       synthetic_artifact(false, true, 50.0, 90000, 250000), false, true},
      {"ok=false fails", healthy,
       synthetic_artifact(false, false, 50.0, 90000, 50000), false, true},
      {"missing benchmark fails", healthy,
       synthetic_artifact(false, true, 50.0, 90000, 50000, "something_else"),
       false, true},
      {"tiny-vs-full skips numeric checks", healthy,
       synthetic_artifact(true, true, 500.0, 900000, 500000), false, false},
      {"--tiny-safe skips numeric checks", healthy,
       synthetic_artifact(false, true, 500.0, 900000, 500000), true, false},
      {"--tiny-safe still catches ok=false", healthy,
       synthetic_artifact(false, false, 50.0, 90000, 50000), true, true},
  };

  std::size_t failed_cases = 0;
  for (const Case& test : cases) {
    std::ostringstream log;
    const std::size_t regressions = compare_artifacts(
        parse_json(test.baseline), parse_json(test.current), t,
        test.tiny_safe, log);
    const bool regressed = regressions > 0;
    if (regressed != test.expect_regression) {
      std::cerr << "self-test FAILED: " << test.label << " (expected "
                << (test.expect_regression ? "regression" : "pass") << ", got "
                << (regressed ? "regression" : "pass") << ")\n"
                << log.str();
      ++failed_cases;
    }
  }
  if (failed_cases == 0) {
    std::cout << "self-test: " << cases.size() << " cases ok\n";
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(argc, argv);
  cli.describe("baseline", "committed BENCH_results.json to compare against");
  cli.describe("current", "freshly produced artifact");
  cli.describe("thresholds", "thresholds JSON (tools/bench_thresholds.json)");
  cli.describe("tiny-safe",
               "structural checks only (fresh --tiny run vs full baseline)");
  cli.describe("self-test",
               "verify the comparator flags synthetic regressions and exit");
  if (cli.wants_help()) {
    std::cout << cli.help_text(
        "bench_compare: diff BENCH_results.json artifacts, exit 1 on "
        "regression");
    return 0;
  }
  try {
    cli.validate();
  } catch (const std::exception& error) {
    std::cerr << "bench_compare: " << error.what() << " (see --help)\n";
    return 2;
  }

  if (cli.get_bool("self-test")) return run_self_test();

  const auto baseline_path = cli.get_string("baseline");
  const auto current_path = cli.get_string("current");
  const auto thresholds_path = cli.get_string("thresholds");
  if (!baseline_path || !current_path || !thresholds_path) {
    std::cerr << "bench_compare: --baseline, --current and --thresholds are "
                 "required\n";
    return 2;
  }

  Thresholds thresholds;
  {
    const auto root = parse_file(*thresholds_path);
    if (!root) return 2;
    try {
      thresholds = load_thresholds(*root);
    } catch (const std::exception& error) {
      std::cerr << "bench_compare: " << *thresholds_path << ": "
                << error.what() << "\n";
      return 2;
    }
  }

  const auto baseline = parse_file(*baseline_path);
  const auto current = parse_file(*current_path);
  if (!baseline || !current) return 2;

  std::size_t failures = 0;
  try {
    failures = compare_artifacts(*baseline, *current, thresholds,
                                 cli.get_bool("tiny-safe"), std::cout);
  } catch (const std::exception& error) {
    std::cerr << "bench_compare: malformed artifact: " << error.what() << "\n";
    return 2;
  }
  if (failures == 0) {
    std::cout << "bench_compare: no regression (" << *current_path << " vs "
              << *baseline_path << ")\n";
    return 0;
  }
  std::cout << "bench_compare: " << failures << " regression check(s) failed\n";
  return 1;
}
