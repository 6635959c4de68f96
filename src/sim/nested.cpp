#include "sim/nested.h"

#include <stdexcept>

#include "core/switch_design.h"

namespace wdm {

NestedRecursionValidator::NestedRecursionValidator(MultistageSwitch& outer)
    : outer_(&outer) {
  const ClosParams& params = outer.network().params();
  const auto [inner_n, inner_r] = balanced_factorization(params.r);
  const Construction construction = outer.network().construction();
  // The inner network replaces a *middle* module, so its network model is
  // the construction's inner model (MSW or MAW), not the outer network
  // model.
  const MulticastModel inner_model = outer.network().inner_model();
  inner_.reserve(params.m);
  for (std::size_t j = 0; j < params.m; ++j) {
    inner_.push_back(std::make_unique<MultistageSwitch>(
        nonblocking_params(inner_n, inner_r, params.k, construction),
        construction, inner_model));
  }
}

bool NestedRecursionValidator::on_connect(ConnectionId outer_id) {
  const ThreeStageNetwork::RecordView outer = outer_->network().connections().at(outer_id);
  const Route route = outer.route();
  std::vector<std::pair<std::size_t, ConnectionId>> mirrored;
  const std::size_t in_module = outer_->network().input_module_of(outer.input().port);

  for (const RouteBranch& branch : route.branches) {
    // Inside middle module `branch.middle` the transit enters at module
    // input port = the outer input module's index, on the branch link lane,
    // and leaves at ports {leg.out_module} on the leg link lanes.
    MulticastRequest inner_request;
    inner_request.input = {in_module, branch.link_lane};
    for (const DeliveryLeg& leg : branch.legs) {
      inner_request.outputs.push_back({leg.out_module, leg.link_lane});
    }
    const auto inner_id = inner_[branch.middle]->try_connect(inner_request);
    if (!inner_id) {
      // Counterexample to the recursion claim: roll back and report.
      for (const auto& [middle, id] : mirrored) inner_[middle]->disconnect(id);
      return false;
    }
    mirrored.emplace_back(branch.middle, *inner_id);
  }
  mirror_.emplace(outer_id, std::move(mirrored));
  return true;
}

void NestedRecursionValidator::on_disconnect(ConnectionId outer_id) {
  const auto it = mirror_.find(outer_id);
  if (it == mirror_.end()) {
    throw std::out_of_range("NestedRecursionValidator: unknown outer connection");
  }
  for (const auto& [middle, inner_id] : it->second) {
    inner_[middle]->disconnect(inner_id);
  }
  mirror_.erase(it);
}

std::size_t NestedRecursionValidator::mirrored_connections() const {
  std::size_t total = 0;
  for (const auto& inner : inner_) total += inner->active_connections();
  return total;
}

void NestedRecursionValidator::self_check() const {
  for (const auto& inner : inner_) inner->network().self_check();
}

FiveStageSwitch::FiveStageSwitch(std::size_t n, std::size_t r, std::size_t k,
                                 Construction construction,
                                 MulticastModel network_model)
    : outer_(MultistageSwitch::nonblocking(n, r, k, construction, network_model)),
      nested_(outer_) {}

std::optional<ConnectionId> FiveStageSwitch::try_connect(
    const MulticastRequest& request) {
  const auto id = outer_.try_connect(request);
  if (!id) return std::nullopt;
  if (!nested_.on_connect(*id)) {
    // Would falsify the §3 recursion: surface loudly rather than mask it.
    outer_.disconnect(*id);
    throw std::logic_error(
        "FiveStageSwitch: an inner network blocked a transit the outer "
        "middle-module abstraction admitted");
  }
  return id;
}

void FiveStageSwitch::disconnect(ConnectionId id) {
  nested_.on_disconnect(id);
  outer_.disconnect(id);
}

std::uint64_t FiveStageSwitch::crosspoints() const {
  const ClosParams& params = outer_.network().params();
  const MulticastModel inner_model = outer_.network().inner_model();
  const auto [n, r, m, k] = params;
  // Edge stages as crossbar modules (same accounting as multistage_cost)...
  const std::uint64_t per_lane_in = static_cast<std::uint64_t>(n) * m * k;
  const std::uint64_t per_lane_out = static_cast<std::uint64_t>(m) * n * k;
  const std::uint64_t in_stage =
      r * (inner_model == MulticastModel::kMSW ? per_lane_in : per_lane_in * k);
  const std::uint64_t out_stage =
      r * (outer_.model() == MulticastModel::kMSW ? per_lane_out
                                                  : per_lane_out * k);
  // ...plus the m inner three-stage networks.
  std::uint64_t middles = 0;
  for (std::size_t j = 0; j < nested_.inner_count(); ++j) {
    const ClosParams& inner_params = nested_.inner(j).network().params();
    middles += multistage_cost(inner_params,
                               outer_.network().construction(), inner_model)
                   .crosspoints;
  }
  return in_stage + out_stage + middles;
}

void FiveStageSwitch::self_check() const {
  outer_.network().self_check();
  nested_.self_check();
}

}  // namespace wdm
