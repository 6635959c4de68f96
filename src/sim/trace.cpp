#include "sim/trace.h"

#include <sstream>
#include <stdexcept>
#include <string_view>

#include "sim/churn_step.h"

namespace wdm {

void TraceRecorder::on_connect(std::uint64_t key, const MulticastRequest& request) {
  events_.push_back({TraceEvent::Type::kConnect, key, request});
}

void TraceRecorder::on_disconnect(std::uint64_t key) {
  events_.push_back({TraceEvent::Type::kDisconnect, key, {}});
}

std::string TraceRecorder::to_csv() const {
  std::ostringstream os;
  os << "# wdm-trace/1\n";
  for (const TraceEvent& event : events_) {
    if (event.type == TraceEvent::Type::kConnect) {
      os << "connect," << event.key << ',' << event.request.input.port << ','
         << event.request.input.lane << ',';
      for (std::size_t i = 0; i < event.request.outputs.size(); ++i) {
        if (i != 0) os << '|';
        os << event.request.outputs[i].port << ':' << event.request.outputs[i].lane;
      }
      os << '\n';
    } else {
      os << "disconnect," << event.key << '\n';
    }
  }
  return os.str();
}

namespace {

std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == separator) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

std::uint64_t parse_number(const std::string& text, std::size_t line) {
  try {
    std::size_t consumed = 0;
    const std::uint64_t value = std::stoull(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument("trailing junk");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("trace line " + std::to_string(line) +
                                ": bad number '" + text + "'");
  }
}

}  // namespace

std::vector<TraceEvent> parse_trace_csv(const std::string& csv) {
  std::vector<TraceEvent> events;
  std::istringstream stream(csv);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line.front() == '#') {
      // Comment / version header. Headerless legacy files are fine; a
      // wdm-trace header we do not understand is not.
      const std::string_view text(line);
      constexpr std::string_view kPrefix = "# wdm-trace/";
      if (text.starts_with(kPrefix) && text != "# wdm-trace/1") {
        throw std::invalid_argument(
            "trace line " + std::to_string(line_number) +
            ": unsupported trace version '" + line + "'");
      }
      continue;
    }
    const std::vector<std::string> fields = split(line, ',');
    TraceEvent event;
    if (fields[0] == "disconnect") {
      if (fields.size() != 2) {
        throw std::invalid_argument("trace line " + std::to_string(line_number) +
                                    ": disconnect needs exactly one key");
      }
      event.type = TraceEvent::Type::kDisconnect;
      event.key = parse_number(fields[1], line_number);
    } else if (fields[0] == "connect") {
      if (fields.size() != 5) {
        throw std::invalid_argument("trace line " + std::to_string(line_number) +
                                    ": connect needs key,port,lane,outputs");
      }
      event.type = TraceEvent::Type::kConnect;
      event.key = parse_number(fields[1], line_number);
      event.request.input.port =
          static_cast<std::size_t>(parse_number(fields[2], line_number));
      event.request.input.lane =
          static_cast<Wavelength>(parse_number(fields[3], line_number));
      if (fields[4].empty()) {
        throw std::invalid_argument("trace line " + std::to_string(line_number) +
                                    ": connect with no outputs");
      }
      for (const std::string& chunk : split(fields[4], '|')) {
        const std::vector<std::string> endpoint = split(chunk, ':');
        if (endpoint.size() != 2) {
          throw std::invalid_argument("trace line " + std::to_string(line_number) +
                                      ": bad output '" + chunk + "'");
        }
        event.request.outputs.push_back(
            {static_cast<std::size_t>(parse_number(endpoint[0], line_number)),
             static_cast<Wavelength>(parse_number(endpoint[1], line_number))});
      }
    } else {
      throw std::invalid_argument("trace line " + std::to_string(line_number) +
                                  ": unknown event '" + fields[0] + "'");
    }
    events.push_back(std::move(event));
  }
  return events;
}

std::string ReplayResult::to_string() const {
  std::ostringstream os;
  os << "connects=" << connects << " admitted=" << admitted
     << " blocked=" << blocked << " inadmissible=" << inadmissible
     << " disconnects=" << disconnects;
  return os.str();
}

std::vector<TraceEvent> record_random_workload(const ClosParams& params,
                                               Construction construction,
                                               MulticastModel network_model,
                                               const SimConfig& config) {
  MultistageSwitch sw(params, construction, network_model);
  if (config.repack) sw.enable_repack(repack::RepackPolicy{});
  SwitchChurnTarget target{sw};
  TraceRecorder recorder;
  ChurnStream stream{Rng(config.seed)};
  const ChurnMix mix{.arrival_fraction = config.arrival_fraction, .fanout = config.fanout};
  std::map<ConnectionId, std::uint64_t> key_of;  // live id -> trace key
  std::uint64_t next_key = 1;
  for (std::size_t step = 0; step < config.steps; ++step) {
    const ChurnOutcome outcome = churn_step(target, stream, mix);
    if (outcome.request) {  // admitted or blocked: recorded either way
      if (outcome.op == ChurnOutcome::Op::kAdmitted) {
        key_of[outcome.id] = next_key;
        // A repack admit moved sessions to fresh ids; their keys follow them.
        if (const repack::RepackEngine* repacker = sw.repack_engine()) {
          for (const auto& [old_id, new_id] : repacker->last_moved()) {
            auto entry = key_of.extract(old_id);
            entry.key() = new_id;
            key_of.insert(std::move(entry));
          }
        }
      }
      recorder.on_connect(next_key++, *outcome.request);
    } else if (outcome.op == ChurnOutcome::Op::kDeparted) {
      recorder.on_disconnect(key_of.extract(outcome.id).mapped());
    }
  }
  return recorder.events();
}

}  // namespace wdm
