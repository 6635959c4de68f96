#include "repack/repack.h"

#include <bit>
#include <stdexcept>

#include "util/metrics.h"
#include "util/trace_span.h"

namespace wdm::repack {

namespace {

struct RepackMetrics {
  Counter& attempts = metrics().counter("repack.attempts");
  Counter& admits = metrics().counter("repack.admits");
  Counter& failed = metrics().counter("repack.failed");
  Counter& rollbacks = metrics().counter("repack.rollbacks");
  Counter& sessions_moved = metrics().counter("repack.sessions_moved");
  Histogram& chain_length = metrics().histogram("repack.chain_length");
  TimerStat& migrate = metrics().timer("repack.migrate_ns");

  static RepackMetrics& get() {
    static RepackMetrics instance;
    return instance;
  }
};

/// Index of the lowest set bit of a nonzero lane word.
Wavelength lowest_lane(std::uint64_t lanes) {
  return static_cast<Wavelength>(std::countr_zero(lanes));
}

}  // namespace

// ---------------------------------------------------------------------------
// RepackExecutor
// ---------------------------------------------------------------------------

void RepackExecutor::begin() {
  if (active_) throw std::logic_error("RepackExecutor: transaction already open");
  victims_.clear();
  words_.clear();
  admitted_.clear();
  outcome_.restored.clear();
  outcome_.dropped.clear();
  outcome_.complete = true;
  active_ = true;
}

bool RepackExecutor::release(ConnectionId id) {
  const ThreeStageNetwork& network = router_->network();
  if (!network.connections().contains(id)) return false;
  // Copy the record's words BEFORE the release frees its block: re-routing
  // reads the request from them, and a rollback rebuilds the original route
  // from them long after this transaction has installed other connections.
  const std::span<const std::uint32_t> words = network.connections().at(id).words();
  // Undo-log capture: the session's ConnectionView predecessor (0 = head).
  // Rollback reinstalls victims newest-first splicing each one back after
  // this id, which restores the view's iteration order exactly -- any
  // predecessor this transaction releases later is itself reinstalled
  // earlier in the reverse undo, so the splice target is always live.
  victims_.push_back({id, network.predecessor_of(id), words_.size(), words.size()});
  words_.insert(words_.end(), words.begin(), words.end());
  router_->disconnect(id);
  return true;
}

ThreeStageNetwork::RecordView RepackExecutor::victim_view(std::size_t index) const {
  const Victim& victim = victims_[index];
  return {{words_.data() + victim.first_word, victim.word_count},
          router_->network().params().n};
}

const MulticastRequest& RepackExecutor::victim_request(std::size_t index) {
  const ThreeStageNetwork::RecordView view = victim_view(index);
  request_.input = view.input();
  const auto outputs = view.outputs();
  request_.outputs.assign(outputs.begin(), outputs.end());
  return request_;
}

std::optional<ConnectionId> RepackExecutor::try_admit(const MulticastRequest& request) {
  const auto id = router_->try_connect(request);
  if (id) admitted_.push_back(*id);
  return id;
}

const MigrationOutcome& RepackExecutor::reroute_released(DropPolicy policy) {
  // Release order. For fault restoration (victims collected from the
  // insertion-ordered ConnectionView) this is ascending old id -- the exact
  // deterministic order the legacy restore pass re-routed in.
  for (std::size_t i = 0; i < victims_.size(); ++i) {
    const MulticastRequest& request = victim_request(i);
    if (const auto new_id = try_admit(request)) {
      outcome_.restored.emplace_back(victims_[i].old_id, *new_id);
    } else if (policy == DropPolicy::kAllowDrops) {
      outcome_.dropped.emplace_back(victims_[i].old_id, request);
    } else {
      rollback();
      outcome_.complete = false;
      return outcome_;
    }
  }
  outcome_.complete = true;
  return outcome_;
}

void RepackExecutor::commit() {
  victims_.clear();
  admitted_.clear();
  active_ = false;
}

void RepackExecutor::rollback() {
  // Undo admissions newest-first, then reinstate victims newest-first --
  // under their ORIGINAL ids (ThreeStageNetwork::reinstall revives the
  // generation) and
  // at their ORIGINAL ConnectionView positions (spliced back after the
  // predecessor captured at release time), so a rolled-back transaction is
  // invisible to anyone holding session ids or iterating the view. After
  // the admissions are gone, occupancy is the pre-transaction state minus
  // the victims' routes, so every reinstallation lands on free lanes (the
  // routes coexisted before the transaction) -- reinstall() validates that
  // claim and would throw on any executor bug.
  for (std::size_t i = admitted_.size(); i-- > 0;) {
    router_->disconnect(admitted_[i]);
  }
  for (std::size_t i = victims_.size(); i-- > 0;) {
    const ThreeStageNetwork::RecordView original = victim_view(i);
    (void)router_->network().reinstall(victims_[i].old_id, original.request(),
                                       original.route(), victims_[i].prev_id);
  }
  if (!victims_.empty() || !admitted_.empty()) {
    RepackMetrics::get().rollbacks.add();
  }
  outcome_.restored.clear();
  outcome_.dropped.clear();
  victims_.clear();
  admitted_.clear();
  active_ = false;
}

bool RepackExecutor::did_admit(ConnectionId id) const {
  for (const ConnectionId admitted : admitted_) {
    if (admitted == id) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// RepackPlanner
// ---------------------------------------------------------------------------

RepackPlanner::RepackPlanner(Router& router)
    : router_(&router), network_(&router.network()) {
  const ClosParams& params = network_->params();
  owner12_.assign(params.r * params.m * params.k, kNoOwner);
  owner23_.assign(params.m * params.r * params.k, kNoOwner);
}

void RepackPlanner::refresh() {
  const ClosParams& params = network_->params();
  owner12_.assign(owner12_.size(), kNoOwner);
  owner23_.assign(owner23_.size(), kNoOwner);
  for (const auto& [id, view] : network_->connections()) {
    const std::size_t in_module = network_->input_module_of(view.input().port);
    view.walk(
        [&](std::size_t j, Wavelength lane, const auto& legs) {
          owner12_[(in_module * params.m + j) * params.k + lane] = id;
          for (const ModulePortLane leg : legs) {
            owner23_[(j * params.r + leg.port) * params.k + leg.lane] = id;
          }
        },
        [](auto&&...) {});
  }
}

bool RepackPlanner::viable(ConnectionId owner, const RepackExecutor& txn) const {
  // Live (releases make index entries stale; the view's O(1) generation
  // check filters them) and not a session this transaction already placed
  // (re-breaking one would livelock the chain).
  return owner != kNoOwner && !txn.did_admit(owner) &&
         network_->connections().contains(owner);
}

std::optional<ConnectionId> RepackPlanner::propose(
    const MulticastRequest& request, const RepackExecutor& txn) const {
  const ClosParams& params = network_->params();
  const Construction construction = network_->construction();
  const Wavelength source_lane = request.input.lane;
  const std::size_t in_module = network_->input_module_of(request.input.port);

  // Per-output-module (module, required link lane) demands under the
  // router's lane rule. kNoWavelength = any lane.
  targets_.clear();
  for (const auto& out : request.outputs) {
    const std::size_t module = network_->output_module_of(out.port);
    const Wavelength required = required_link_lane(
        construction, network_->network_model(), source_lane, out.lane);
    bool merged = false;
    for (auto& [existing, lane] : targets_) {
      if (existing != module) continue;
      if (lane != required) return std::nullopt;  // unsatisfiable demand
      merged = true;
      break;
    }
    if (!merged) targets_.emplace_back(module, required);
  }

  // Lanes the request may take into a middle: MSW-dominant holds the source
  // lane, MAW-dominant converts to any. Each link's candidate lanes are the
  // usable ones among those; a failed middle's usable words are 0, so it is
  // neither a candidate nor has an owner worth migrating.
  const std::uint64_t in_lanes = accepted_lanes(
      construction == Construction::kMswDominant ? source_lane : kNoWavelength);
  const SwitchModule& input = network_->input_module(in_module);
  for (std::size_t j = 0; j < params.m; ++j) {
    const std::uint64_t usable12 = network_->link12_usable_lanes(in_module, j) & in_lanes;
    if ((usable12 & ~input.out_word(j)) == 0) {
      // Blocked into the middle: free a link12 lane the request could use.
      for (std::uint64_t bits = usable12; bits != 0; bits &= bits - 1) {
        const ConnectionId owner = owner12(in_module, j, lowest_lane(bits));
        if (viable(owner, txn)) return owner;
      }
      continue;
    }

    // Candidate middle: free the first target it fails to serve.
    const SwitchModule& middle = network_->middle_module(j);
    for (const auto& [p, lane] : targets_) {
      const std::uint64_t usable23 = network_->link23_usable_lanes(j, p) & accepted_lanes(lane);
      if ((usable23 & ~middle.out_word(p)) != 0) continue;  // serves
      for (std::uint64_t bits = usable23; bits != 0; bits &= bits - 1) {
        const ConnectionId owner = owner23(j, p, lowest_lane(bits));
        if (viable(owner, txn)) return owner;
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// RepackEngine
// ---------------------------------------------------------------------------

std::optional<ConnectionId> RepackEngine::connect(const MulticastRequest& request) {
  // Classic first: an idle engine adds one branch to the admit path and
  // nothing else (no planning, no timers, no allocations).
  if (const auto id = router_->try_connect(request)) {
    moved_.clear();
    return id;
  }
  if (!policy_.enabled || router_->last_error() != ConnectError::kBlocked) {
    moved_.clear();
    return std::nullopt;
  }

  RepackMetrics& counters = RepackMetrics::get();
  counters.attempts.add();
  ScopedTimer timer(counters.migrate);
  TraceSpan span("repack.migrate");

  executor_.begin();
  moved_.clear();

  // Work list: the request, then every released victim in release order
  // (victim i is item i + 1, re-placed from the executor's own copy). Place
  // the head item; when it blocks, break the session the planner blames and
  // retry -- the released victim joins the tail, so a victim that itself
  // blocks extends the chain. Bounded by the move budget; any dead end
  // rolls the whole transaction back.
  std::size_t moves = 0;
  std::size_t head = 0;
  std::optional<ConnectionId> root_id;
  bool failed = false;
  while (head <= executor_.released_count()) {
    // Re-read every pass: the victim's request is executor scratch.
    const MulticastRequest& place =
        head == 0 ? request : executor_.victim_request(head - 1);
    if (const auto id = executor_.try_admit(place)) {
      if (head == 0) {
        root_id = *id;
      } else {
        moved_.emplace_back(executor_.victim_id(head - 1), *id);
      }
      ++head;
      continue;
    }
    if (moves >= policy_.max_moves) {
      failed = true;
      break;
    }
    planner_.refresh();
    const auto victim = planner_.propose(place, executor_);
    if (!victim) {
      failed = true;
      break;
    }
    executor_.release(*victim);  // break
    ++moves;
    // Test seam: a failure here leaves the victim torn down with its
    // replacement not yet made -- the worst possible interruption point.
    if (failure_injection_ && failure_injection_(moves)) {
      failed = true;
      break;
    }
    // Loop retries the head placement against the freed state (make).
  }

  if (failed || !root_id) {
    executor_.rollback();
    counters.failed.add();
    moved_.clear();
    return std::nullopt;
  }
  executor_.commit();
  counters.admits.add();
  counters.sessions_moved.add(moved_.size());
  counters.chain_length.record(moved_.size());
  moved_total_ += moved_.size();
  max_chain_ = std::max(max_chain_, moved_.size());
  span.arg("chain", static_cast<std::int64_t>(moved_.size()));
  return root_id;
}

}  // namespace wdm::repack
