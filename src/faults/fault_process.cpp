#include "faults/fault_process.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace wdm {

std::string FaultEvent::to_string() const {
  std::ostringstream os;
  os << (fail ? "fail " : "repair ") << component.to_string() << " @t=" << time;
  return os.str();
}

namespace {

/// One component's alternating up/down renewal process over [0, duration).
void emit_component(std::vector<FaultEvent>& events, const FaultComponent& component,
                    Rng rng, double mtbf, double mttr, double duration) {
  double t = 0.0;
  while (true) {
    t += exponential(rng, mtbf);
    if (t >= duration) return;
    events.push_back({t, component, true});
    t += exponential(rng, mttr);
    if (t >= duration) return;  // stays down past the horizon
    events.push_back({t, component, false});
  }
}

}  // namespace

std::vector<FaultEvent> generate_fault_timeline(const ClosParams& params,
                                                const FaultProcessConfig& config,
                                                double duration) {
  if (config.mtbf <= 0.0 || config.mttr <= 0.0) {
    throw std::invalid_argument("generate_fault_timeline: mtbf and mttr must be > 0");
  }
  if (duration <= 0.0) {
    throw std::invalid_argument("generate_fault_timeline: duration must be > 0");
  }
  const std::size_t m = params.m;
  const std::size_t r = params.r;
  const std::size_t k = params.k;
  const Rng master(config.seed);

  // Fixed linear layout of the full component space, so a component's stream
  // does not depend on which classes are enabled:
  //   [0, m)                       middle modules
  //   [m, m + rm)                  stage 1-2 links
  //   [m + rm, m + 2rm)            stage 2-3 links
  //   [m + 2rm, m + 2rm + rmk)     stage 1-2 link lanes
  //   [m + 2rm + rmk, ... + rmk)   stage 2-3 link lanes
  const std::size_t links_base = m;
  const std::size_t lanes_base = m + 2 * r * m;

  std::vector<FaultEvent> events;
  if (config.middles) {
    for (std::size_t j = 0; j < m; ++j) {
      emit_component(events, {FaultComponentKind::kMiddleModule, j, 0, 0},
                     master.split(j), config.mtbf, config.mttr, duration);
    }
  }
  if (config.links) {
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        emit_component(events, {FaultComponentKind::kLink12, i, j, 0},
                       master.split(links_base + i * m + j), config.mtbf,
                       config.mttr, duration);
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t p = 0; p < r; ++p) {
        emit_component(events, {FaultComponentKind::kLink23, j, p, 0},
                       master.split(links_base + r * m + j * r + p), config.mtbf,
                       config.mttr, duration);
      }
    }
  }
  if (config.lanes) {
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        for (Wavelength lane = 0; lane < k; ++lane) {
          emit_component(
              events,
              {FaultComponentKind::kLink12Lane, i, j, lane},
              master.split(lanes_base + (i * m + j) * k + lane), config.mtbf,
              config.mttr, duration);
        }
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t p = 0; p < r; ++p) {
        for (Wavelength lane = 0; lane < k; ++lane) {
          emit_component(
              events,
              {FaultComponentKind::kLink23Lane, j, p, lane},
              master.split(lanes_base + r * m * k + (j * r + p) * k + lane),
              config.mtbf, config.mttr, duration);
        }
      }
    }
  }

  std::sort(events.begin(), events.end(),
            [](const FaultEvent& lhs, const FaultEvent& rhs) {
              if (lhs.time != rhs.time) return lhs.time < rhs.time;
              if (lhs.component != rhs.component) return lhs.component < rhs.component;
              return lhs.fail && !rhs.fail;  // fail before repair (never same component)
            });
  return events;
}

void apply_fault_event(FaultModel& model, const FaultEvent& event) {
  if (event.fail) {
    model.fail(event.component);
  } else {
    model.repair(event.component);
  }
}

}  // namespace wdm
