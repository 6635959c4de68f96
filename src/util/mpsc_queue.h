// Bounded multi-producer queue: the per-shard submission spine of the
// single-writer engine (DESIGN.md §3.13).
//
// The sharded engine's executor replaces lock-per-op with op shipping: any
// thread may *submit* an operation to a shard, but exactly one worker at a
// time *executes* a shard's operations, so the shard body itself runs with
// no mutex at all. This header is the queue that carries the ops: Dmitry
// Vyukov's bounded MPMC ring, used here with many producers and one consumer
// at a time (consumption is serialized by shard ownership, not by the
// queue).
//
// Protocol: every cell carries an atomic sequence number. A cell is ready
// for the producer whose ticket equals its sequence, and ready for the
// consumer when the sequence is ticket+1; each side publishes the cell back
// to the other by storing sequence = ticket + 1 (producer) or ticket +
// capacity (consumer) with release ordering. Producers claim tickets with a
// CAS on `tail_`; the consumer owns `head_` outright (single consumer), so
// pops are CAS-free. Full and empty are detected from the sequence lag
// without any shared counter.
//
// Why bounded: the queue doubles as the engine's backpressure. A full shard
// queue makes submitters wait (ShardExecutor::submit_task spins/yields), which is
// exactly the admission-control behavior a saturated shard should have --
// unbounded queues would just move the overload into memory. Capacity is
// rounded up to a power of two so the ring index is a mask, not a modulo.
//
// Determinism note: per shard the queue is FIFO across producers only in
// ticket order, which is whatever interleaving the producers' CASes took.
// The engine's bit-identical-stats contract therefore never depends on
// cross-producer order; ops carry counts into shard-resident streams (see
// churn_driver.h), or are independent sessions whose outcome order is
// reconciled through completion tickets.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

namespace wdm {

template <typename T>
class BoundedMpscQueue {
 public:
  /// `capacity` is rounded up to a power of two, minimum 2.
  explicit BoundedMpscQueue(std::size_t capacity)
      : mask_(round_up(capacity) - 1),
        cells_(std::make_unique<Cell[]>(mask_ + 1)) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Multi-producer push; false when the ring is full (backpressure -- the
  /// caller decides whether to spin, yield, or shed).
  bool try_push(T value) {
    std::size_t ticket = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[ticket & mask_];
      const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
      const std::intptr_t lag = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(ticket);
      if (lag == 0) {
        // The cell is free for this ticket; claim the ticket.
        if (tail_.compare_exchange_weak(ticket, ticket + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(value);
          cell.sequence.store(ticket + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `ticket`; retry with the newer one.
      } else if (lag < 0) {
        return false;  // the consumer has not freed this cell: full
      } else {
        ticket = tail_.load(std::memory_order_relaxed);  // raced; refetch
      }
    }
  }

  /// Single-consumer pop; false when empty. Callers must serialize pops
  /// externally (the engine's per-shard claim does this).
  bool try_pop(T& out) {
    if (empty()) return false;  // producer has not published the head cell
    Cell& cell = cells_[head_ & mask_];
    out = std::move(cell.value);
    cell.sequence.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    return true;
  }

  /// Consumer-side emptiness check: true when the next pop would fail.
  /// Only the consumer may call it (it reads the consumer cursor).
  [[nodiscard]] bool empty() const {
    const std::size_t seq =
        cells_[head_ & mask_].sequence.load(std::memory_order_acquire);
    return static_cast<std::intptr_t>(seq) -
               static_cast<std::intptr_t>(head_ + 1) < 0;
  }

  /// Racy size estimate (submission-side instrumentation only; the engine's
  /// queue-depth histogram samples this, nothing correctness-bearing does).
  [[nodiscard]] std::size_t approx_size() const {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_approx_.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

  /// Consumer-side bookkeeping for approx_size (relaxed mirror of the
  /// consumer-private head cursor; called by the consumer after pops).
  void sync_approx_head() {
    head_approx_.store(head_, std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    T value{};
  };

  static std::size_t round_up(std::size_t capacity) {
    if (capacity < 2) capacity = 2;
    return std::bit_ceil(capacity);
  }

  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  /// Producer cursor (tickets). Padded away from the consumer cursor so
  /// submitters and the draining worker do not false-share.
  alignas(64) std::atomic<std::size_t> tail_{0};
  /// Consumer cursor: plain memory, single consumer by contract.
  alignas(64) std::size_t head_ = 0;
  std::atomic<std::size_t> head_approx_{0};
};

}  // namespace wdm
