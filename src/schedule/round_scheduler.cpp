#include "schedule/round_scheduler.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace wdm {

bool sessions_conflict(const Session& a, const Session& b) {
  if (a.source == b.source) return true;
  for (const std::size_t da : a.destinations) {
    for (const std::size_t db : b.destinations) {
      if (da == db) return true;
    }
  }
  return false;
}

std::vector<std::vector<std::size_t>> conflict_graph(
    const std::vector<Session>& sessions) {
  std::vector<std::vector<std::size_t>> adjacency(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    for (std::size_t j = i + 1; j < sessions.size(); ++j) {
      if (sessions_conflict(sessions[i], sessions[j])) {
        adjacency[i].push_back(j);
        adjacency[j].push_back(i);
      }
    }
  }
  return adjacency;
}

namespace {

/// Vertex indices by degree descending, then index ascending: a total
/// order, so the schedule never depends on the sort's tie handling.
std::vector<std::size_t> degree_order(
    const std::vector<std::vector<std::size_t>>& adjacency) {
  std::vector<std::size_t> order(adjacency.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (adjacency[a].size() != adjacency[b].size()) {
      return adjacency[a].size() > adjacency[b].size();
    }
    return a < b;
  });
  return order;
}

}  // namespace

std::vector<std::vector<std::size_t>> schedule_rounds_greedy(
    const std::vector<Session>& sessions) {
  const auto adjacency = conflict_graph(sessions);
  const std::vector<std::size_t> order = degree_order(adjacency);

  std::vector<int> color(sessions.size(), -1);
  int colors_used = 0;
  for (const std::size_t s : order) {
    std::vector<bool> taken(static_cast<std::size_t>(colors_used) + 1, false);
    for (const std::size_t neighbor : adjacency[s]) {
      if (color[neighbor] >= 0 &&
          color[neighbor] <= colors_used) {
        taken[static_cast<std::size_t>(color[neighbor])] = true;
      }
    }
    int chosen = 0;
    while (taken[static_cast<std::size_t>(chosen)]) ++chosen;
    color[s] = chosen;
    colors_used = std::max(colors_used, chosen + 1);
  }

  std::vector<std::vector<std::size_t>> rounds(
      static_cast<std::size_t>(colors_used));
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    rounds[static_cast<std::size_t>(color[s])].push_back(s);
  }
  return rounds;
}

namespace {

// Branch-and-bound k-colorability test (sessions in degree order).
bool colorable_within(const std::vector<std::vector<std::size_t>>& adjacency,
                      const std::vector<std::size_t>& order, std::size_t limit,
                      std::uint64_t& budget) {
  std::vector<int> color(adjacency.size(), -1);
  // Recursive lambda over the order index.
  auto assign = [&](auto&& self, std::size_t position) -> bool {
    if (budget == 0) return false;
    --budget;
    if (position == order.size()) return true;
    const std::size_t s = order[position];
    // Symmetry breaking: only allow introducing one new color.
    int max_used = -1;
    for (std::size_t i = 0; i < position; ++i) {
      max_used = std::max(max_used, color[order[i]]);
    }
    const int ceiling =
        std::min(static_cast<int>(limit) - 1, max_used + 1);
    for (int c = 0; c <= ceiling; ++c) {
      bool clash = false;
      for (const std::size_t neighbor : adjacency[s]) {
        if (color[neighbor] == c) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      color[s] = c;
      if (self(self, position + 1)) return true;
      color[s] = -1;
    }
    return false;
  };
  return assign(assign, 0);
}

}  // namespace

std::optional<std::size_t> minimum_rounds_exact(const std::vector<Session>& sessions,
                                                std::uint64_t node_budget) {
  if (sessions.empty()) return 0;
  const auto adjacency = conflict_graph(sessions);
  const std::vector<std::size_t> order = degree_order(adjacency);
  const std::size_t upper = schedule_rounds_greedy(sessions).size();
  for (std::size_t limit = 1; limit <= upper; ++limit) {
    std::uint64_t budget = node_budget;
    if (colorable_within(adjacency, order, limit, budget)) return limit;
    if (budget == 0) return std::nullopt;  // inconclusive: ran out of nodes
  }
  return upper;
}

namespace {

struct SlotState {
  // [node][lane] usage plus per-node totals.
  std::vector<std::vector<bool>> rx_used;
  std::vector<std::vector<bool>> tx_used;
  std::vector<std::size_t> rx_count;
  std::vector<std::size_t> tx_count;
  WdmSlot slot;

  SlotState(std::size_t N, std::size_t k)
      : rx_used(N, std::vector<bool>(k, false)),
        tx_used(N, std::vector<bool>(k, false)),
        rx_count(N, 0),
        tx_count(N, 0) {}
};

// Try to place `session` into the slot under `model`; on success record it.
bool try_place(SlotState& state, const std::vector<Session>& sessions,
               std::size_t index, std::size_t k, MulticastModel model) {
  const Session& session = sessions[index];
  switch (model) {
    case MulticastModel::kMAW: {
      if (state.tx_count[session.source] >= k) return false;
      for (const std::size_t d : session.destinations) {
        if (state.rx_count[d] >= k) return false;
      }
      ++state.tx_count[session.source];
      for (const std::size_t d : session.destinations) ++state.rx_count[d];
      state.slot.sessions.push_back(index);
      state.slot.lanes.push_back(kNoWavelengthLane);
      return true;
    }
    case MulticastModel::kMSW: {
      for (std::uint32_t lane = 0; lane < k; ++lane) {
        if (state.tx_used[session.source][lane]) continue;
        bool free = true;
        for (const std::size_t d : session.destinations) {
          if (state.rx_used[d][lane]) {
            free = false;
            break;
          }
        }
        if (!free) continue;
        state.tx_used[session.source][lane] = true;
        ++state.tx_count[session.source];
        for (const std::size_t d : session.destinations) {
          state.rx_used[d][lane] = true;
          ++state.rx_count[d];
        }
        state.slot.sessions.push_back(index);
        state.slot.lanes.push_back(lane);
        return true;
      }
      return false;
    }
    case MulticastModel::kMSDW: {
      if (state.tx_count[session.source] >= k) return false;
      for (std::uint32_t lane = 0; lane < k; ++lane) {
        bool free = true;
        for (const std::size_t d : session.destinations) {
          if (state.rx_used[d][lane]) {
            free = false;
            break;
          }
        }
        if (!free) continue;
        ++state.tx_count[session.source];
        for (const std::size_t d : session.destinations) {
          state.rx_used[d][lane] = true;
          ++state.rx_count[d];
        }
        state.slot.sessions.push_back(index);
        state.slot.lanes.push_back(lane);
        return true;
      }
      return false;
    }
  }
  return false;
}

}  // namespace

std::vector<WdmSlot> schedule_wdm_slots(const std::vector<Session>& sessions,
                                        std::size_t N, std::size_t k,
                                        MulticastModel model) {
  for (const Session& session : sessions) {
    if (session.source >= N || session.destinations.empty()) {
      throw std::invalid_argument("schedule_wdm_slots: bad session");
    }
    for (const std::size_t d : session.destinations) {
      if (d >= N) throw std::invalid_argument("schedule_wdm_slots: bad destination");
    }
  }
  std::vector<SlotState> states;
  for (std::size_t index = 0; index < sessions.size(); ++index) {
    bool placed = false;
    for (SlotState& state : states) {
      if (try_place(state, sessions, index, k, model)) {
        placed = true;
        break;
      }
    }
    if (!placed) {
      states.emplace_back(N, k);
      if (!try_place(states.back(), sessions, index, k, model)) {
        throw std::logic_error(
            "schedule_wdm_slots: session does not fit an empty slot "
            "(duplicate destinations within one session?)");
      }
    }
  }
  std::vector<WdmSlot> slots;
  slots.reserve(states.size());
  for (SlotState& state : states) slots.push_back(std::move(state.slot));
  return slots;
}

std::optional<std::string> check_wdm_schedule(const std::vector<Session>& sessions,
                                              std::size_t N, std::size_t k,
                                              MulticastModel model,
                                              const std::vector<WdmSlot>& slots) {
  std::vector<bool> scheduled(sessions.size(), false);
  for (std::size_t slot_index = 0; slot_index < slots.size(); ++slot_index) {
    const WdmSlot& slot = slots[slot_index];
    if (slot.sessions.size() != slot.lanes.size()) {
      return "slot " + std::to_string(slot_index) + ": sessions/lanes mismatch";
    }
    std::vector<std::vector<bool>> rx_used(N, std::vector<bool>(k, false));
    std::vector<std::vector<bool>> tx_used(N, std::vector<bool>(k, false));
    std::vector<std::size_t> rx_count(N, 0);
    std::vector<std::size_t> tx_count(N, 0);
    for (std::size_t position = 0; position < slot.sessions.size(); ++position) {
      const std::size_t index = slot.sessions[position];
      if (index >= sessions.size()) return "unknown session index";
      if (scheduled[index]) return "session scheduled twice";
      scheduled[index] = true;
      const Session& session = sessions[index];
      const std::uint32_t lane = slot.lanes[position];

      if (++tx_count[session.source] > k) return "source capacity exceeded";
      if (model == MulticastModel::kMSW) {
        if (lane >= k) return "MSW session without a lane";
        if (tx_used[session.source][lane]) return "source lane reused";
        tx_used[session.source][lane] = true;
      }
      for (const std::size_t d : session.destinations) {
        if (++rx_count[d] > k) return "destination capacity exceeded";
        if (model != MulticastModel::kMAW) {
          if (lane >= k) return "lane missing for lane-disciplined model";
          if (rx_used[d][lane]) return "destination lane reused";
          rx_used[d][lane] = true;
        }
      }
    }
  }
  for (std::size_t index = 0; index < sessions.size(); ++index) {
    if (!scheduled[index]) return "session " + std::to_string(index) + " missing";
  }
  return std::nullopt;
}

std::vector<Session> random_sessions(Rng& rng, std::size_t N, std::size_t count,
                                     std::size_t min_fanout,
                                     std::size_t max_fanout) {
  if (min_fanout == 0 || min_fanout > max_fanout || max_fanout > N) {
    throw std::invalid_argument("random_sessions: need 1 <= min <= max <= N");
  }
  std::vector<Session> sessions;
  sessions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Session session;
    session.source = rng.next_below(N);
    const std::size_t fanout =
        min_fanout + rng.next_below(max_fanout - min_fanout + 1);
    for (const std::size_t d : rng.sample_without_replacement(N, fanout)) {
      session.destinations.push_back(d);
    }
    sessions.push_back(std::move(session));
  }
  return sessions;
}

}  // namespace wdm
