#include "obs/flight_recorder.h"

#include <ostream>
#include <stdexcept>

namespace wdm::obs {

const char* engine_op_name(EngineOp op) {
  switch (op) {
    case EngineOp::kConnect: return "connect";
    case EngineOp::kDisconnect: return "disconnect";
    case EngineOp::kGrow: return "grow";
    case EngineOp::kRepack: return "repack";
    case EngineOp::kMigrateIn: return "migrate_in";
    case EngineOp::kMigrateOut: return "migrate_out";
  }
  return "?";
}

const char* engine_op_outcome_name(EngineOpOutcome outcome) {
  switch (outcome) {
    case EngineOpOutcome::kAdmitted: return "admitted";
    case EngineOpOutcome::kBlocked: return "blocked";
    case EngineOpOutcome::kStale: return "stale";
    case EngineOpOutcome::kGrown: return "grown";
    case EngineOpOutcome::kGrowBlocked: return "grow_blocked";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::uint32_t shard, std::size_t capacity)
    : shard_(shard), capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("FlightRecorder: need capacity >= 1");
  }
  // Reserve the whole ring up front so steady-state recording (like the rest
  // of the churn hot path) performs no heap allocations.
  records_.reserve(capacity_);
}

void FlightRecorder::record(EngineOp op, EngineOpOutcome outcome,
                            ConnectionId session, std::uint32_t detail) {
  std::lock_guard lock(mutex_);
  FlightRecord entry;
  entry.tick = ++ticks_;
  entry.session = session;
  entry.op = op;
  entry.outcome = outcome;
  entry.detail = detail;
  if (records_.size() < capacity_) {
    records_.push_back(entry);
  } else {
    records_[oldest_] = entry;
    oldest_ = (oldest_ + 1) % capacity_;
    ++dropped_;
  }
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::uint64_t FlightRecorder::ticks() const {
  std::lock_guard lock(mutex_);
  return ticks_;
}

FlightRecorder::Dump FlightRecorder::dump() const {
  std::lock_guard lock(mutex_);
  Dump out;
  out.shard = shard_;
  out.dropped = dropped_;
  out.ticks = ticks_;
  out.records.reserve(records_.size());
  const std::size_t size = records_.size();
  const bool wrapped = size == capacity_ && oldest_ != 0;
  for (std::size_t i = 0; i < size; ++i) {
    out.records.push_back(records_[wrapped ? (oldest_ + i) % size : i]);
  }
  return out;
}

void FlightRecorder::clear() {
  std::lock_guard lock(mutex_);
  records_.clear();
  oldest_ = 0;
  dropped_ = 0;
  ticks_ = 0;
}

void FlightRecorder::print(const Dump& dump, std::ostream& os) {
  os << "flight recorder shard " << dump.shard << ": " << dump.records.size()
     << " records, " << dump.dropped << " dropped (window starts at tick "
     << (dump.records.empty() ? 0 : dump.records.front().tick) << " of "
     << dump.ticks << ")\n";
  for (const FlightRecord& record : dump.records) {
    os << "  tick " << record.tick << "  " << engine_op_name(record.op) << " "
       << engine_op_outcome_name(record.outcome) << "  session=0x" << std::hex
       << record.session << std::dec;
    if (record.op == EngineOp::kRepack) {
      os << "  chain=" << record.detail;
    }
    os << "\n";
  }
}

}  // namespace wdm::obs
