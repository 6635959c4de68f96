#include "obs/health_snapshot.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace wdm::obs {

namespace {

/// std::int64_t <-> std::uint64_t through the two's-complement bit pattern
/// (margin can be negative; the wire words are unsigned).
std::uint64_t to_word(std::int64_t value) {
  return static_cast<std::uint64_t>(value);
}
std::int64_t from_word(std::uint64_t word) {
  return static_cast<std::int64_t>(word);
}

}  // namespace

std::int64_t EngineHealthSnapshot::recomputed_margin() const {
  const std::uint64_t effective =
      failed_middles >= middle_count ? 0 : middle_count - failed_middles;
  return static_cast<std::int64_t>(effective) -
         static_cast<std::int64_t>(bound_m);
}

bool EngineHealthSnapshot::consistent() const {
  return middle_busy.size() == middle_count &&
         std::accumulate(middle_busy.begin(), middle_busy.end(),
                         std::uint64_t{0}) == busy_middle_lanes &&
         recomputed_margin() == margin && nonblocking == (margin >= 0);
}

std::string EngineHealthSnapshot::to_string() const {
  std::ostringstream os;
  os << "shard " << shard << " v" << version << ": sessions=" << sessions
     << " busy_lanes=" << busy_middle_lanes << " margin=" << margin
     << (nonblocking ? " (nonblocking)" : " (BELOW BOUND)")
     << " connects=" << connects << " disconnects=" << disconnects
     << " grows=" << grows << " failed_middles=" << failed_middles;
  if (repack_moves != 0) {
    os << " repack_moves=" << repack_moves
       << " repack_max_chain=" << repack_max_chain;
  }
  return os.str();
}

void EngineHealthSnapshot::encode(std::uint64_t* words) const {
  words[0] = version;
  words[1] = shard;
  words[2] = middle_count;
  words[3] = links_per_middle;
  words[4] = sessions;
  words[5] = busy_middle_lanes;
  words[6] = connects;
  words[7] = disconnects;
  words[8] = grows;
  words[9] = grow_blocked;
  words[10] = stale_rejected;
  words[11] = bound_m;
  words[12] = failed_middles;
  words[13] = to_word(margin);
  words[14] = nonblocking ? 1 : 0;
  words[15] = repack_moves;
  words[16] = repack_max_chain;
  std::copy(middle_busy.begin(), middle_busy.end(), words + kHeaderWords);
}

EngineHealthSnapshot EngineHealthSnapshot::decode(std::vector<std::uint64_t> words) {
  if (words.size() < kHeaderWords) {
    throw std::invalid_argument(
        "EngineHealthSnapshot::decode: fewer than kHeaderWords words");
  }
  EngineHealthSnapshot snapshot;
  snapshot.version = words[0];
  snapshot.shard = static_cast<std::uint32_t>(words[1]);
  snapshot.middle_count = static_cast<std::uint32_t>(words[2]);
  snapshot.links_per_middle = static_cast<std::uint32_t>(words[3]);
  snapshot.sessions = words[4];
  snapshot.busy_middle_lanes = words[5];
  snapshot.connects = words[6];
  snapshot.disconnects = words[7];
  snapshot.grows = words[8];
  snapshot.grow_blocked = words[9];
  snapshot.stale_rejected = words[10];
  snapshot.bound_m = words[11];
  snapshot.failed_middles = words[12];
  snapshot.margin = from_word(words[13]);
  snapshot.nonblocking = words[14] != 0;
  snapshot.repack_moves = words[15];
  snapshot.repack_max_chain = words[16];
  if (words.size() < kHeaderWords + snapshot.middle_count) {
    throw std::invalid_argument(
        "EngineHealthSnapshot::decode: busy-lane payload truncated");
  }
  words.erase(words.begin(), words.begin() + kHeaderWords);
  words.resize(snapshot.middle_count);
  snapshot.middle_busy = std::move(words);
  return snapshot;
}

SeqlockSnapshotSlot::SeqlockSnapshotSlot(std::size_t words)
    : capacity_(words),
      words_(std::make_unique<std::atomic<std::uint64_t>[]>(words)) {
  if (words == 0) {
    throw std::invalid_argument("SeqlockSnapshotSlot: need >= 1 word");
  }
}

void SeqlockSnapshotSlot::publish(const std::uint64_t* words,
                                  std::size_t count) {
  if (count > capacity_) {
    throw std::invalid_argument("SeqlockSnapshotSlot::publish: over capacity");
  }
  update([&](const Writer& out) {
    for (std::size_t i = 0; i < count; ++i) out.store(i, words[i]);
  });
}

std::uint64_t SeqlockSnapshotSlot::read(std::uint64_t* out, std::size_t count,
                                        std::size_t* retries) const {
  if (count > capacity_) {
    throw std::invalid_argument("SeqlockSnapshotSlot::read: over capacity");
  }
  std::size_t restarts = 0;
  for (;;) {
    const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
    if ((s1 & 1u) == 0) {
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = words_[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) {
        if (retries != nullptr) *retries = restarts;
        return s1;
      }
    }
    ++restarts;
  }
}

}  // namespace wdm::obs
