#include "multistage/builder.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "repack/repack.h"

namespace wdm {

ClosParams nonblocking_params(std::size_t n, std::size_t r, std::size_t k,
                              Construction construction) {
  const NonblockingBound bound = theorem_min_m(n, r, k, construction);
  ClosParams params{n, r, std::max(bound.m, n), k};
  params.validate();
  return params;
}

MultistageSwitch::MultistageSwitch(ClosParams params, Construction construction,
                                   MulticastModel network_model,
                                   std::optional<RoutingPolicy> policy)
    : network_(params, construction, network_model),
      router_(network_,
              policy.value_or(Router::recommended_policy(params, construction))) {}

MultistageSwitch MultistageSwitch::nonblocking(std::size_t n, std::size_t r,
                                               std::size_t k,
                                               Construction construction,
                                               MulticastModel network_model) {
  return MultistageSwitch(nonblocking_params(n, r, k, construction), construction,
                          network_model);
}

MultistageSwitch::~MultistageSwitch() = default;

void MultistageSwitch::enable_repack(const repack::RepackPolicy& policy) {
  repack_ = std::make_unique<repack::RepackEngine>(router_, policy);
}

std::optional<ConnectionId> MultistageSwitch::connect_with_repack(
    const MulticastRequest& request) {
  return repack_ ? repack_->connect(request) : router_.try_connect(request);
}

ConnectionId MultistageSwitch::connect(const MulticastRequest& request) {
  const auto id = try_connect(request);
  if (!id) {
    throw std::runtime_error(std::string("MultistageSwitch::connect: ") +
                             connect_error_name(last_error()) + " for " +
                             request.to_string());
  }
  return *id;
}

}  // namespace wdm
