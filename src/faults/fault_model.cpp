#include "faults/fault_model.h"

#include <sstream>
#include <stdexcept>

#include "multistage/module.h"

namespace wdm {

const char* fault_component_kind_name(FaultComponentKind kind) {
  switch (kind) {
    case FaultComponentKind::kMiddleModule: return "middle-module";
    case FaultComponentKind::kLink12: return "link12";
    case FaultComponentKind::kLink23: return "link23";
    case FaultComponentKind::kLink12Lane: return "link12-lane";
    case FaultComponentKind::kLink23Lane: return "link23-lane";
    case FaultComponentKind::kConverterSlot: return "converter-slot";
  }
  return "?";
}

std::string FaultComponent::to_string() const {
  std::ostringstream os;
  os << fault_component_kind_name(kind);
  switch (kind) {
    case FaultComponentKind::kMiddleModule:
    case FaultComponentKind::kConverterSlot:
      os << ' ' << a;
      break;
    case FaultComponentKind::kLink12:
    case FaultComponentKind::kLink23:
      os << ' ' << a << "->" << b;
      break;
    case FaultComponentKind::kLink12Lane:
    case FaultComponentKind::kLink23Lane:
      os << ' ' << a << "->" << b << '@' << wavelength_name(lane);
      break;
  }
  return os.str();
}

FaultModel::FaultModel(const ClosParams& params, std::size_t converter_slots)
    : params_(params) {
  params_.validate();
  if (params_.k > SwitchModule::kMaxLanes) {
    throw std::invalid_argument("FaultModel: k = " + std::to_string(params_.k) +
                                " lanes exceed one link word (max " +
                                std::to_string(SwitchModule::kMaxLanes) + ")");
  }
  lane_mask_ = params_.k == 64 ? ~0ull : (1ull << params_.k) - 1;
  middle_failed_.assign(params_.m, 0);
  link12_failed_.assign(params_.r * params_.m, 0);
  link23_failed_.assign(params_.m * params_.r, 0);
  converter_slot_failed_.assign(converter_slots, 0);
  link12_lanes_failed_.assign(params_.r * params_.m, 0);
  link23_lanes_failed_.assign(params_.m * params_.r, 0);
}

std::pair<std::uint64_t*, std::uint64_t> FaultModel::locate(
    const FaultComponent& component) {
  const std::size_t m = params_.m;
  const std::size_t r = params_.r;
  const std::size_t k = params_.k;
  const std::size_t a = component.a;
  const std::size_t b = component.b;
  switch (component.kind) {
    case FaultComponentKind::kMiddleModule:
      if (a >= m) break;
      return {&middle_failed_[a], 1};
    case FaultComponentKind::kLink12:
      if (a >= r || b >= m) break;
      return {&link12_failed_[a * m + b], 1};
    case FaultComponentKind::kLink23:
      if (a >= m || b >= r) break;
      return {&link23_failed_[a * r + b], 1};
    case FaultComponentKind::kLink12Lane:
      if (a >= r || b >= m || component.lane >= k) break;
      return {&link12_lanes_failed_[a * m + b], 1ull << component.lane};
    case FaultComponentKind::kLink23Lane:
      if (a >= m || b >= r || component.lane >= k) break;
      return {&link23_lanes_failed_[a * r + b], 1ull << component.lane};
    case FaultComponentKind::kConverterSlot:
      if (a >= converter_slot_failed_.size()) break;
      return {&converter_slot_failed_[a], 1};
  }
  throw std::out_of_range("FaultModel: component out of range: " +
                          component.to_string());
}

void FaultModel::fail(const FaultComponent& component) {
  const auto [word, bit] = locate(component);
  if ((*word & bit) != 0) return;  // already failed
  *word |= bit;
  ++active_faults_;
  if (component.kind == FaultComponentKind::kMiddleModule) ++failed_middles_;
  if (component.kind == FaultComponentKind::kConverterSlot) {
    ++failed_converter_slot_count_;
  }
}

void FaultModel::repair(const FaultComponent& component) {
  const auto [word, bit] = locate(component);
  if ((*word & bit) == 0) return;  // already healthy
  *word &= ~bit;
  --active_faults_;
  if (component.kind == FaultComponentKind::kMiddleModule) --failed_middles_;
  if (component.kind == FaultComponentKind::kConverterSlot) {
    --failed_converter_slot_count_;
  }
}

bool FaultModel::failed(const FaultComponent& component) const {
  const auto [word, bit] = const_cast<FaultModel*>(this)->locate(component);
  return (*word & bit) != 0;
}

bool FaultModel::middle_failed(std::size_t j) const {
  return middle_failed_.at(j) != 0;
}

std::vector<std::size_t> FaultModel::failed_middles() const {
  std::vector<std::size_t> failed;
  failed.reserve(failed_middles_);
  for (std::size_t j = 0; j < middle_failed_.size(); ++j) {
    if (middle_failed_[j] != 0) failed.push_back(j);
  }
  return failed;
}

std::string FaultModel::to_string() const {
  std::ostringstream os;
  os << "FaultModel[" << active_faults_ << " active";
  if (failed_middles_ != 0) os << ", " << failed_middles_ << " middles down";
  if (failed_converter_slot_count_ != 0) {
    os << ", " << failed_converter_slot_count_ << " converter slots down";
  }
  os << ']';
  return os.str();
}

}  // namespace wdm
