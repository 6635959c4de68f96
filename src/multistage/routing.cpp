#include "multistage/routing.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/metrics.h"
#include "util/trace_span.h"

namespace wdm {

namespace {

/// Router hot-path instruments (see docs/BENCHMARKS.md for definitions).
struct RouterMetrics {
  Counter& attempts = metrics().counter("routing.route_attempts");
  Counter& found = metrics().counter("routing.routes_found");
  Counter& blocked = metrics().counter("routing.route_blocked");
  Counter& middle_probes = metrics().counter("routing.middle_probes");
  Counter& spread_expansions = metrics().counter("routing.spread_expansions");
  Counter& connects = metrics().counter("routing.connects");
  Counter& disconnects = metrics().counter("routing.disconnects");
  TimerStat& find_route = metrics().timer("routing.find_route");
  Histogram& candidates_per_attempt =
      metrics().histogram("routing.candidates_per_attempt");

  static RouterMetrics& get() {
    static RouterMetrics instance;
    return instance;
  }
};

inline bool test_bit(const std::vector<std::uint64_t>& words, std::size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1u;
}
inline void set_bit(std::vector<std::uint64_t>& words, std::size_t i) {
  words[i >> 6] |= 1ull << (i & 63);
}
inline void clear_bit(std::vector<std::uint64_t>& words, std::size_t i) {
  words[i >> 6] &= ~(1ull << (i & 63));
}

}  // namespace

Router::Router(ThreeStageNetwork& network, RoutingPolicy policy)
    : network_(&network), policy_(policy) {
  if (policy_.max_spread == 0) {
    throw std::invalid_argument("Router: max_spread must be >= 1");
  }
  const ClosParams& params = network_->params();
  demands_.resize(params.r);
  demand_stamp_.assign(params.r, 0);
  targets_.reserve(params.r);
  chosen_.reserve(policy_.max_spread);

  cand_words_ = network_->row_words();
  cand_mask_.assign(cand_words_, 0);
  full_cover_.assign(cand_words_, 0);
  const std::size_t levels = std::min(policy_.max_spread, params.r);
  gain_by_mid_.assign(params.m, 0);
  gain_start_.assign(params.r + 1, 0);
  options_.assign(levels * params.m, 0);
  newly_stack_.assign(levels * ((params.r + 63) / 64), 0);
}

RoutingPolicy Router::recommended_policy(const ClosParams& params,
                                         Construction construction) {
  return {theorem_min_m(params.n, params.r, params.k, construction).x,
          RouteSearch::kExhaustive};
}

const Route* Router::find_route_instrumented(const MulticastRequest& request) const {
  RouterMetrics& counters = RouterMetrics::get();
  counters.attempts.add();
  ScopedTimer timer(counters.find_route);
  TraceSpan span("routing.find_route");
  span.arg("fanout", static_cast<std::int64_t>(request.outputs.size()));
  const Route* route = find_route_impl(request);
  span.arg("found", route != nullptr ? 1 : 0);
  (route != nullptr ? counters.found : counters.blocked).add();
  if (pending_spread_ != 0) {
    counters.spread_expansions.add(pending_spread_);
    pending_spread_ = 0;
  }
  return route;
}

std::optional<Route> Router::find_route(const MulticastRequest& request) const {
  const Route* route = find_route_instrumented(request);
  if (route == nullptr) return std::nullopt;
  return *route;  // copy out of the scratch
}

const Route* Router::find_route_impl(const MulticastRequest& request) const {
  route_pool_.recycle(route_);
  if (!build_demands(request)) return nullptr;  // unsatisfiable demand
  if (!gather_rows(network_->input_module_of(request.input.port),
                   request.input.lane)) {
    return nullptr;
  }
  return cover_and_materialize(request);
}

bool Router::build_demands(const MulticastRequest& request) const {
  const Construction construction = network_->construction();
  const MulticastModel output_model = network_->network_model();
  const Wavelength source_lane = request.input.lane;

  // Group destinations by output module under each module's link-lane
  // requirement. The demand slots are stamp-gated: a slot belongs to this
  // request iff its stamp equals the fresh generation, so nothing is cleared
  // between requests. Targets are sorted ascending, reproducing the
  // iteration order of the std::map this replaced.
  const std::uint64_t gen = ++demand_gen_;
  targets_.clear();
  for (const auto& out : request.outputs) {
    const std::size_t module = network_->output_module_of(out.port);
    const Wavelength required =
        required_link_lane(construction, output_model, source_lane, out.lane);
    ModuleDemand& demand = demands_[module];
    if (demand_stamp_[module] != gen) {
      demand_stamp_[module] = gen;
      demand.destinations.clear();
      demand.required_link_lane = required;
      targets_.push_back(module);
    } else if (demand.required_link_lane != required) {
      return false;  // unsatisfiable: one link cannot carry two lanes
    }
    demand.destinations.push_back(out);
  }
  // Insertion sort: targets are few (<= fanout) and unique, so this is the
  // one ascending order any sort would produce, without the libcall.
  for (std::size_t i = 1; i < targets_.size(); ++i) {
    const std::size_t v = targets_[i];
    std::size_t p = i;
    for (; p > 0 && targets_[p - 1] > v; --p) targets_[p] = targets_[p - 1];
    targets_[p] = v;
  }
  return true;
}

bool Router::gather_rows(std::size_t in_module, Wavelength source_lane) const {
  RouterMetrics& counters = RouterMetrics::get();
  counters.middle_probes.add(network_->params().m);
  // A row bit means free and usable, once the rows have caught up with the
  // fault model (a failed middle's bits are clear).
  network_->sync_fault_rows();
  const Wavelength cand_lane =
      network_->construction() == Construction::kMswDominant ? source_lane : kNoWavelength;
  const std::uint64_t* cand_row = network_->candidate_row(in_module, cand_lane);
  std::size_t n_candidates = 0;
  for (std::size_t w = 0; w < cand_words_; ++w) {
    cand_mask_[w] = full_cover_[w] = cand_row[w];
    n_candidates += static_cast<std::size_t>(std::popcount(cand_row[w]));
  }
  counters.candidates_per_attempt.record(n_candidates);
  if (n_candidates == 0) return false;

  // serves_ row t = the serve row of target t under its link-lane
  // requirement AND the candidate mask. The same pass ANDs every row into
  // full_cover_ for the root's fast path.
  const std::size_t n_targets = targets_.size();
  if (serves_.size() < n_targets * cand_words_) serves_.resize(n_targets * cand_words_);
  for (std::size_t t = 0; t < n_targets; ++t) {
    const std::size_t target = targets_[t];
    const std::uint64_t* serve =
        network_->serve_row(target, demands_[target].required_link_lane);
    std::uint64_t* row = serves_.data() + t * cand_words_;
    for (std::size_t w = 0; w < cand_words_; ++w) {
      row[w] = serve[w] & cand_mask_[w];
      full_cover_[w] &= row[w];
    }
  }
  return true;
}

const Route* Router::cover_and_materialize(const MulticastRequest& request) const {
  const std::size_t in_module = network_->input_module_of(request.input.port);
  const Wavelength source_lane = request.input.lane;
  const std::size_t n_targets = targets_.size();
  const std::size_t m_total = network_->params().m;
  const std::size_t serve_words = (n_targets + 63) / 64;

  // --- cover search: at most max_spread middles covering all targets ------
  // serves_ is target-major over middle indices and cand_mask_/chosen_mask_
  // are middle masks, so "servers of t" and "options at a pivot" are word
  // scans. Both searches try middles in the specified order: coverage gain
  // (uncovered targets served) descending, then middle index ascending.
  chosen_.clear();
  chosen_mask_.assign(cand_words_, 0);
  covered_.assign(serve_words, 0);
  std::size_t uncovered = n_targets;

  const auto serves_bit = [&](std::size_t t, std::size_t j) {
    return ((serves_[t * cand_words_ + (j >> 6)] >> (j & 63)) & 1u) != 0;
  };
  auto coverage_gain = [&](std::size_t j) {
    std::size_t gain = 0;
    for (std::size_t t = 0; t < n_targets; ++t) {
      if (!test_bit(covered_, t) && serves_bit(t, j)) ++gain;
    }
    return gain;
  };
  // apply/undo record the targets newly covered at each search level in
  // newly_stack_ row `level` (= chosen_.size() before/after the push).
  // Expansion counts accumulate in pending_spread_ and are flushed by
  // find_route_instrumented, so the inner search loop touches no atomics.
  auto apply = [&](std::size_t j) {
    ++pending_spread_;
    std::uint64_t* newly = newly_stack_.data() + chosen_.size() * serve_words;
    for (std::size_t w = 0; w < serve_words; ++w) newly[w] = 0;
    for (std::size_t t = 0; t < n_targets; ++t) {
      if (!test_bit(covered_, t) && serves_bit(t, j)) {
        newly[t >> 6] |= 1ull << (t & 63);
        --uncovered;
      }
    }
    for (std::size_t w = 0; w < serve_words; ++w) covered_[w] |= newly[w];
    chosen_.push_back(j);
    set_bit(chosen_mask_, j);
  };
  auto undo = [&]() {
    const std::size_t j = chosen_.back();
    chosen_.pop_back();
    clear_bit(chosen_mask_, j);
    const std::uint64_t* newly = newly_stack_.data() + chosen_.size() * serve_words;
    for (std::size_t w = 0; w < serve_words; ++w) {
      covered_[w] &= ~newly[w];
      uncovered += static_cast<std::size_t>(std::popcount(newly[w]));
    }
  };
  // Full-cover fast path: a middle in full_cover_ serves every uncovered
  // target, so its gain is the maximum and the lowest such middle is the
  // specified order's first pick -- and it completes the cover. m_total =
  // none (the row's padding bits beyond m are always zero).
  const auto lowest_full_cover = [&]() -> std::size_t {
    for (std::size_t w = 0; w < cand_words_; ++w) {
      if (full_cover_[w] != 0) {
        return w * 64 + static_cast<std::size_t>(std::countr_zero(full_cover_[w]));
      }
    }
    return m_total;
  };

  bool found = false;
  if (const std::size_t j = lowest_full_cover(); n_targets > 0 && j != m_total) {
    apply(j);  // gather_rows filled full_cover_ for the root
    found = true;
  } else if (policy_.search == RouteSearch::kGreedy) {
    while (uncovered > 0 && chosen_.size() < policy_.max_spread) {
      std::size_t best = m_total;
      std::size_t best_gain = 0;
      for (std::size_t w = 0; w < cand_words_; ++w) {
        std::uint64_t word = cand_mask_[w] & ~chosen_mask_[w];
        while (word != 0) {
          const std::size_t j =
              w * 64 + static_cast<std::size_t>(std::countr_zero(word));
          word &= word - 1;
          const std::size_t gain = coverage_gain(j);
          if (gain > best_gain) {
            best_gain = gain;
            best = j;
          }
        }
      }
      if (best == m_total) break;
      apply(best);
    }
    found = (uncovered == 0);
  } else {
    // Exhaustive: branch on the uncovered target with the fewest servers;
    // complete because any cover must include one of that target's servers.
    auto dfs = [&](auto&& self) -> bool {
      if (uncovered == 0) return true;
      if (chosen_.size() >= policy_.max_spread) return false;
      // One pass over the uncovered rows finds the pivot and refills
      // full_cover_ for this level's fast path.
      for (std::size_t w = 0; w < cand_words_; ++w) full_cover_[w] = ~chosen_mask_[w];
      std::size_t pivot = n_targets;
      std::size_t pivot_servers = m_total + 1;
      for (std::size_t t = 0; t < n_targets; ++t) {
        if (test_bit(covered_, t)) continue;
        const std::uint64_t* row = serves_.data() + t * cand_words_;
        std::size_t servers = 0;
        for (std::size_t w = 0; w < cand_words_; ++w) {
          const std::uint64_t word = row[w] & ~chosen_mask_[w];
          full_cover_[w] &= word;
          servers += static_cast<std::size_t>(std::popcount(word));
        }
        if (servers == 0) return false;  // dead end
        if (servers < pivot_servers) {
          pivot_servers = servers;
          pivot = t;
        }
      }
      if (const std::size_t j = lowest_full_cover(); j != m_total) {
        apply(j);
        return true;
      }

      // The pivot's servers (its unchosen serves_ bits) are this level's
      // options; for_each_option visits them in ascending middle index.
      const std::uint64_t* prow = serves_.data() + pivot * cand_words_;
      const auto for_each_option = [&](auto&& visit) {
        for (std::size_t w = 0; w < cand_words_; ++w) {
          for (std::uint64_t word = prow[w] & ~chosen_mask_[w]; word != 0;
               word &= word - 1) {
            visit(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
          }
        }
      };
      // Gains without per-(option, target) probing; both variants leave
      // gain_by_mid_[j] = coverage_gain(j) for every option j (other slots
      // hold garbage nothing reads).
      if (cand_words_ == 1 && n_targets < 64) {
        // Bit-sliced: carry-save-add each uncovered serve row into sum
        // planes p0..p5 (plane b holds bit b of every middle's count), then
        // extract each option's 6-bit gain with independent shifts -- no
        // store-to-load chains through a counter array.
        std::uint64_t p0 = 0, p1 = 0, p2 = 0, p3 = 0, p4 = 0, p5 = 0;
        const std::uint64_t live = ~chosen_mask_[0];
        for (std::size_t t = 0; t < n_targets; ++t) {
          if (test_bit(covered_, t)) continue;
          std::uint64_t x = serves_[t] & live;
          std::uint64_t c;
          c = p0 & x; p0 ^= x; x = c;
          c = p1 & x; p1 ^= x; x = c;
          c = p2 & x; p2 ^= x; x = c;
          c = p3 & x; p3 ^= x; x = c;
          c = p4 & x; p4 ^= x; x = c;
          p5 ^= x;  // < 64 rows: plane 5 cannot carry out
        }
        for_each_option([&](std::size_t j) {
          gain_by_mid_[j] = static_cast<std::uint32_t>(
              ((p0 >> j) & 1) | (((p1 >> j) & 1) << 1) |
              (((p2 >> j) & 1) << 2) | (((p3 >> j) & 1) << 3) |
              (((p4 >> j) & 1) << 4) | (((p5 >> j) & 1) << 5));
        });
      } else {
        // Transposed fallback for wide candidate sets or huge fanout: walk
        // each uncovered target's serve row once, bumping the gain of every
        // middle bit in it.
        for_each_option([&](std::size_t j) { gain_by_mid_[j] = 0; });
        for (std::size_t t = 0; t < n_targets; ++t) {
          if (test_bit(covered_, t)) continue;
          const std::uint64_t* row = serves_.data() + t * cand_words_;
          for (std::size_t w = 0; w < cand_words_; ++w) {
            std::uint64_t word = row[w] & ~chosen_mask_[w];
            while (word != 0) {
              ++gain_by_mid_[w * 64 +
                             static_cast<std::size_t>(std::countr_zero(word))];
              word &= word - 1;
            }
          }
        }
      }
      // Counting sort into the specified order: gains lie in [1, uncovered]
      // (every option serves the uncovered pivot), bucket starts run by
      // descending gain, and the ascending scatter keeps index order within
      // a gain.
      std::uint32_t* start = gain_start_.data();
      std::fill(start, start + uncovered + 1, 0u);
      for_each_option([&](std::size_t j) { ++start[gain_by_mid_[j]]; });
      std::uint32_t n_options = 0;
      for (std::size_t g = uncovered + 1; g-- > 0;) {
        const std::uint32_t count = start[g];
        start[g] = n_options;
        n_options += count;
      }
      std::uint32_t* options = options_.data() + chosen_.size() * m_total;
      for_each_option([&](std::size_t j) {
        options[start[gain_by_mid_[j]]++] = static_cast<std::uint32_t>(j);
      });
      for (std::uint32_t i = 0; i < n_options; ++i) {
        apply(options[i]);
        if (self(self)) return true;
        undo();
      }
      return false;
    };
    found = dfs(dfs);
  }
  if (!found) return nullptr;

  // --- materialize the route: assign each target to its covering branch ---
  // Re-derive the assignment: walk chosen in order, give each chosen middle
  // the targets it serves that are still unassigned. Branches and legs come
  // from the route pool so their nested vectors keep their capacity.
  assigned_.assign(serve_words, 0);
  const SwitchModule& input = network_->input_module(in_module);
  for (const std::size_t j : chosen_) {
    RouteBranch& branch = route_pool_.add_branch(route_);
    branch.middle = j;
    const SwitchModule& middle = network_->middle_module(j);
    for (std::size_t t = 0; t < n_targets; ++t) {
      if (test_bit(assigned_, t) || !serves_bit(t, j)) {
        continue;
      }
      set_bit(assigned_, t);
      const std::size_t module = targets_[t];
      const ModuleDemand& demand = demands_[module];
      DeliveryLeg& leg = route_pool_.add_leg(branch);
      leg.out_module = module;
      if (demand.required_link_lane != kNoWavelength) {
        leg.link_lane = demand.required_link_lane;
      } else {
        // Preferred lane: the common destination lane when the module's
        // destinations agree (saves the output module a conversion), else
        // the source lane.
        Wavelength preferred = demand.destinations.front().lane;
        for (const auto& dest : demand.destinations) {
          if (dest.lane != preferred) {
            preferred = source_lane;
            break;
          }
        }
        const auto lane = pick_lane(network_->link23_usable_lanes(j, module) &
                                        ~middle.out_word(module),
                                    preferred);
        if (!lane) return nullptr;  // should not happen: serves_ said free
        leg.link_lane = *lane;
      }
      leg.destinations = demand.destinations;  // copy-assign: keeps capacity
    }
    if (branch.legs.empty()) {
      // Greedy may over-pick; drop the idle branch back into the pool.
      route_pool_.drop_last_branch(route_);
      continue;
    }
    if (network_->construction() == Construction::kMswDominant) {
      branch.link_lane = source_lane;
    } else {
      const auto lane = pick_lane(network_->link12_usable_lanes(in_module, j) &
                                      ~input.out_word(j),
                                  source_lane);
      if (!lane) return nullptr;  // candidate check said a lane was free
      branch.link_lane = *lane;
    }
  }
  return &route_;
}

std::optional<Wavelength> Router::pick_lane(std::uint64_t free_usable,
                                            Wavelength preferred) const {
  if (policy_.lanes == LanePolicy::kPreferSource && (free_usable >> preferred & 1) != 0) {
    return preferred;
  }
  if (free_usable == 0) return std::nullopt;
  return static_cast<Wavelength>(std::countr_zero(free_usable));
}

Wavelength required_link_lane(Construction construction, MulticastModel output_model,
                              Wavelength source_lane, Wavelength dest_lane) {
  if (construction == Construction::kMswDominant) return source_lane;
  if (output_model == MulticastModel::kMSW) return dest_lane;
  return kNoWavelength;
}

std::size_t conversions_in_route(const ThreeStageNetwork::RecordView& view) {
  const Wavelength input_lane = view.input().lane;
  Wavelength branch_lane = 0;
  std::size_t conversions = 0;
  view.walk(
      [&](std::size_t, Wavelength link_lane, const auto&) {
        branch_lane = link_lane;
        if (link_lane != input_lane) ++conversions;  // input module
      },
      [&](std::size_t, Wavelength link_lane, const auto& destinations) {
        if (link_lane != branch_lane) ++conversions;  // middle module
        for (const WavelengthEndpoint dest : destinations) {
          if (dest.lane != link_lane) ++conversions;  // output module
        }
      });
  return conversions;
}

std::optional<ConnectionId> Router::try_connect(const MulticastRequest& request) {
  if (const auto error = network_->check_admissible(request)) {
    last_error_ = *error;
    return std::nullopt;
  }
  const Route* route = find_route_instrumented(request);
  if (route == nullptr) {
    last_error_ = ConnectError::kBlocked;
    return std::nullopt;
  }
  RouterMetrics::get().connects.add();
  return network_->install(request, *route);
}

void Router::disconnect(ConnectionId id) {
  // Release first: a stale id throws, and a rejected disconnect must not
  // move the counter (it moved even on throw before the stale-id audit).
  network_->release(id);
  RouterMetrics::get().disconnects.add();
}

bool Router::try_disconnect(ConnectionId id) {
  if (!network_->try_release(id)) return false;
  RouterMetrics::get().disconnects.add();
  return true;
}

}  // namespace wdm
