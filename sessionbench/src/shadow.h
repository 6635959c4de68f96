// The benchmark's own model of the engine's endpoints and of the sessions
// the caller holds. Requests are drawn from it in O(fanout), so request
// generation never scans the fabric and never calls into src/sim.
//
// Each shard replica has its own endpoints (engine/sharded_engine.h): input
// endpoint (port, lane) belongs to the shard that owns `port`, and every
// shard has a full set of output endpoints. Under the MSW network model a
// session's outputs all sit on its input lane, so free outputs are kept per
// (shard, lane).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "engine/sharded_engine.h"
#include "sim/request.h"
#include "util/rng.h"

namespace sessionbench {

/// A set of small integers with O(1) insert, erase and uniform draw.
class IndexSet {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  void reset(std::uint32_t universe, bool full) {
    items_.clear();
    pos_.assign(universe, kAbsent);
    if (full) {
      for (std::uint32_t v = 0; v < universe; ++v) insert(v);
    }
  }
  void insert(std::uint32_t v) {
    pos_[v] = static_cast<std::uint32_t>(items_.size());
    items_.push_back(v);
  }
  void erase(std::uint32_t v) {
    const std::uint32_t at = pos_[v];
    const std::uint32_t last = items_.back();
    items_[at] = last;
    pos_[last] = at;
    items_.pop_back();
    pos_[v] = kAbsent;
  }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::uint32_t at(std::size_t i) const { return items_[i]; }
  /// Moves `count` distinct random members to the back and returns the index
  /// of the first of them (a partial Fisher-Yates; membership is unchanged).
  std::size_t draw_to_back(wdm::Rng& rng, std::size_t count) {
    const std::size_t n = items_.size();
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t j = rng.next_below(n - i);
      const std::size_t back = n - 1 - i;
      std::swap(items_[j], items_[back]);
      pos_[items_[j]] = static_cast<std::uint32_t>(j);
      pos_[items_[back]] = static_cast<std::uint32_t>(back);
    }
    return n - count;
  }

 private:
  std::vector<std::uint32_t> items_;
  std::vector<std::uint32_t> pos_;
};

/// A session the caller holds. `renamed` marks a handle the caller learned
/// from the repack engine's move list rather than from the engine's session
/// API (the known defect: ShardedEngine never reports repack renames).
struct Held {
  wdm::engine::SessionId id;
  wdm::MulticastRequest request;
  bool renamed = false;
};

class Shadow {
 public:
  /// `fanout` bounds each session's output count, as ChurnConfig::fanout
  /// does (max must be set).
  void reset(const wdm::engine::ShardedEngine& engine, wdm::FanoutRange fanout) {
    fanout_ = fanout;
    const wdm::ClosParams& params = engine.config().params;
    ports_ = params.port_count();
    lanes_ = params.k;
    shard_of_port_.resize(ports_);
    for (std::size_t p = 0; p < ports_; ++p) shard_of_port_[p] = engine.shard_of(p);
    free_inputs_.reset(static_cast<std::uint32_t>(ports_ * lanes_), true);
    free_outputs_.assign(engine.shard_count() * lanes_, IndexSet{});
    for (IndexSet& set : free_outputs_) set.reset(static_cast<std::uint32_t>(ports_), true);
    held_.clear();
    slot_index_.assign(engine.shard_count(), {});
  }

  [[nodiscard]] std::size_t shard_of(std::size_t port) const { return shard_of_port_[port]; }
  [[nodiscard]] std::size_t live() const { return held_.size(); }
  [[nodiscard]] Held& held(std::size_t i) { return held_[i]; }

  /// A request admissible against the engine's endpoint state: a random
  /// free input endpoint and fanout.min..max free outputs on its lane (fewer
  /// when the lane has fewer free). nullopt when a few draws find no input
  /// whose lane has a free output on its shard.
  std::optional<wdm::MulticastRequest> draw_connect(wdm::Rng& rng) {
    for (int attempt = 0; attempt < 4 && !free_inputs_.empty(); ++attempt) {
      const std::uint32_t input = free_inputs_.at(rng.next_below(free_inputs_.size()));
      const std::size_t port = input / lanes_;
      const auto lane = static_cast<wdm::Wavelength>(input % lanes_);
      IndexSet& outs = outputs(shard_of_port_[port], lane);
      if (outs.empty()) continue;
      const std::size_t fanout = std::min<std::size_t>(
          fanout_.min + rng.next_below(fanout_.max - fanout_.min + 1), outs.size());
      const std::size_t first = outs.draw_to_back(rng, fanout);
      wdm::MulticastRequest request;
      request.input = {port, lane};
      for (std::size_t i = first; i < outs.size(); ++i) {
        request.outputs.push_back({outs.at(i), lane});
      }
      return request;
    }
    return std::nullopt;
  }

  /// A free output endpoint to grow held session `index` by, or nullopt
  /// when the session is already at fanout.max or its lane is full.
  std::optional<wdm::WavelengthEndpoint> draw_grow(wdm::Rng& rng, std::size_t index) {
    const Held& h = held_[index];
    if (h.request.outputs.size() >= fanout_.max) return std::nullopt;
    IndexSet& outs = outputs(h.id.shard, h.request.input.lane);
    if (outs.empty()) return std::nullopt;
    return wdm::WavelengthEndpoint{outs.at(rng.next_below(outs.size())),
                                   h.request.input.lane};
  }

  void add(wdm::engine::SessionId id, const wdm::MulticastRequest& request) {
    free_inputs_.erase(input_key(request.input));
    for (const auto& out : request.outputs) {
      outputs(id.shard, out.lane).erase(static_cast<std::uint32_t>(out.port));
    }
    held_.push_back({id, request, false});
    index_of(id) = static_cast<std::uint32_t>(held_.size() - 1);
  }

  void remove(std::size_t index) {
    Held& h = held_[index];
    free_inputs_.insert(input_key(h.request.input));
    for (const auto& out : h.request.outputs) {
      outputs(h.id.shard, out.lane).insert(static_cast<std::uint32_t>(out.port));
    }
    index_of(h.id) = IndexSet::kAbsent;
    if (index + 1 != held_.size()) {
      h = std::move(held_.back());
      index_of(h.id) = static_cast<std::uint32_t>(index);
    }
    held_.pop_back();
  }

  /// Point held session `index` at the id a grow returned.
  void rename(std::size_t index, wdm::engine::SessionId id) {
    Held& h = held_[index];
    index_of(h.id) = IndexSet::kAbsent;
    h.id = id;
    h.renamed = false;
    index_of(id) = static_cast<std::uint32_t>(index);
  }

  /// Apply a repack move list (old id -> new id) on `shard`. All old ids
  /// are resolved before any new one is indexed, because a chain can hand
  /// one moved session's old slot to another. False if an old id names no
  /// held session.
  bool rename_moved(std::uint32_t shard,
                    std::span<const std::pair<wdm::ConnectionId, wdm::ConnectionId>> moved) {
    moved_index_.clear();
    for (const auto& pair : moved) {
      const auto at = find({shard, pair.first});
      if (!at) return false;
      moved_index_.push_back(*at);
    }
    for (const std::size_t at : moved_index_) index_of(held_[at].id) = IndexSet::kAbsent;
    for (std::size_t i = 0; i < moved.size(); ++i) {
      Held& h = held_[moved_index_[i]];
      h.id = {shard, moved[i].second};
      h.renamed = true;
      index_of(h.id) = static_cast<std::uint32_t>(moved_index_[i]);
    }
    return true;
  }

  void grow(std::size_t index, const wdm::WavelengthEndpoint& destination) {
    Held& h = held_[index];
    outputs(h.id.shard, destination.lane).erase(static_cast<std::uint32_t>(destination.port));
    h.request.outputs.push_back(destination);
  }

  /// Index of the held session named by `id`, or nullopt.
  [[nodiscard]] std::optional<std::size_t> find(wdm::engine::SessionId id) {
    const std::uint32_t at = index_of(id);
    if (at == IndexSet::kAbsent || !(held_[at].id == id)) return std::nullopt;
    return at;
  }

 private:
  [[nodiscard]] std::uint32_t input_key(const wdm::WavelengthEndpoint& e) const {
    return static_cast<std::uint32_t>(e.port * lanes_ + e.lane);
  }
  IndexSet& outputs(std::size_t shard, wdm::Wavelength lane) {
    return free_outputs_[shard * lanes_ + lane];
  }
  std::uint32_t& index_of(wdm::engine::SessionId id) {
    std::vector<std::uint32_t>& map = slot_index_[id.shard];
    const std::uint32_t slot = wdm::ThreeStageNetwork::slot_of_id(id.connection);
    if (slot >= map.size()) map.resize(std::size_t{slot} * 2 + 16, IndexSet::kAbsent);
    return map[slot];
  }

  wdm::FanoutRange fanout_;
  std::size_t ports_ = 0;
  std::size_t lanes_ = 0;
  std::vector<std::size_t> shard_of_port_;
  IndexSet free_inputs_;                   // port * k + lane
  std::vector<IndexSet> free_outputs_;     // [shard * k + lane] -> ports
  std::vector<Held> held_;
  std::vector<std::vector<std::uint32_t>> slot_index_;  // [shard][slot] -> held index
  std::vector<std::size_t> moved_index_;
};

}  // namespace sessionbench
