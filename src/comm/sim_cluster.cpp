#include "fftgrad/comm/sim_cluster.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>

#include "fftgrad/analysis/schedule_stress.h"
#include "fftgrad/util/annotated_mutex.h"
#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/metrics.h"
#include "fftgrad/telemetry/profiler.h"
#include "fftgrad/telemetry/trace.h"

namespace fftgrad::comm {

namespace {

/// Cluster-wide abort signal: raised when any rank throws, so ranks parked
/// in a barrier fail fast instead of deadlocking.
struct AbortedError : std::runtime_error {
  AbortedError() : std::runtime_error("SimCluster: a peer rank failed") {}
};

/// One call-count bump plus the payload bytes this rank feeds into a
/// collective. References are cached across calls (registry objects are
/// immortal), so the disabled path is two relaxed loads.
void note_collective(telemetry::Counter& calls, util::Bytes payload) {
  static telemetry::Counter& bytes_sent =
      telemetry::MetricsRegistry::global().counter("comm.bytes_sent");
  calls.add(1.0);
  bytes_sent.add(payload.to_double());
}

/// The run ledger pairs every collective's charged SimClock time with the
/// analytic prediction for the same message sizes. Rank 0 is the designated
/// recording rank (one row per collective, not one per replica); if rank 0
/// crashes mid-run, collective rows simply stop — the ledger documents the
/// surviving prefix.
bool ledger_records(std::size_t rank) {
  return rank == 0 && telemetry::RunLedger::global().enabled();
}

/// Critical-path leaf spans ("cp") and happens-before edge records
/// ("cp-edge") for the analyzer in fftgrad/telemetry/critical_path.h. Leaf
/// spans must partition each rank's simulated clock: every clock_.advance
/// on a collective path is bracketed by exactly one cp span, and barrier
/// waits are recorded by barrier_wait itself.
void cp_span(std::size_t rank, const char* name, util::SimSeconds start, util::SimSeconds end,
             std::size_t op, std::int32_t peer = -1) {
  telemetry::Tracer::global().record_sim_span(static_cast<std::int32_t>(rank), name, "cp",
                                              start.to_double(), end.to_double(),
                                              static_cast<std::int64_t>(op), peer);
}

/// Zero-length publish/consume marker materializing a causality edge with
/// its simulated timestamp (peer = the publishing rank for consumes).
void cp_edge(std::size_t rank, const char* name, util::SimSeconds time, std::size_t op,
             std::int32_t peer = -1) {
  telemetry::Tracer::global().record_sim_span(static_cast<std::int32_t>(rank), name,
                                              "cp-edge", time.to_double(), time.to_double(),
                                              static_cast<std::int64_t>(op), peer);
}

/// Fault-event counters, registered once. Transport counters are bumped by
/// exactly one designated receiver per delivery (the lowest-ranked live
/// peer), so a p-rank exchange does not multiply the counts p-fold.
struct FaultMetrics {
  telemetry::Counter& rank_crashes;
  telemetry::Counter& straggle_seconds;
  telemetry::Counter& late_contributions;
  telemetry::Counter& retransmits;
  telemetry::Counter& retransmit_bytes;
  telemetry::Counter& recovery_seconds;
  telemetry::Counter& deliveries_failed;
  telemetry::Counter& rank_rejoins;
  telemetry::Counter& state_transfer_bytes;

  static FaultMetrics& get() {
    static FaultMetrics metrics = [] {
      telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
      return FaultMetrics{reg.counter("fault.rank_crashes"),
                          reg.counter("fault.straggle_seconds"),
                          reg.counter("fault.late_contributions"),
                          reg.counter("fault.retransmits"),
                          reg.counter("fault.retransmit_bytes"),
                          reg.counter("fault.recovery_seconds"),
                          reg.counter("fault.deliveries_failed"),
                          reg.counter("fault.rank_rejoins"),
                          reg.counter("fault.state_transfer_bytes")};
    }();
    return metrics;
  }
};

}  // namespace

std::size_t RankContext::size() const { return cluster_->ranks_; }

const NetworkModel& RankContext::network() const { return cluster_->network_; }

std::size_t RankContext::begin_collective() {
  const std::size_t op = op_index_++;
  SimCluster& c = *cluster_;
  if (c.faults_.empty()) return op;
  if (c.faults_.crashes_at(rank_, op)) {
    c.mark_crashed(rank_);
    throw RankCrashed{rank_, op};
  }
  const util::SimSeconds straggle = c.faults_.straggle_s(rank_, op);
  if (straggle > util::SimSeconds(0.0)) {
    const util::SimSeconds start = clock_.time();
    clock_.advance(straggle);
    cp_span(rank_, "straggle", start, clock_.time(), op);
    FaultMetrics::get().straggle_seconds.add(straggle.to_double());
  }
  return op;
}

void RankContext::barrier() {
  static telemetry::Counter& calls =
      telemetry::MetricsRegistry::global().counter("comm.barrier.calls");
  calls.add(1.0);
  telemetry::TraceSpan span("barrier", "comm");
  cluster_->barrier_wait(rank_);
}

void SimCluster::align_clocks_locked() {
  FFTGRAD_ASSERT_HELD(mutex_);
  util::SimSeconds latest{0.0};
  util::SimSeconds earliest{std::numeric_limits<double>::infinity()};
  bool any = false;
  for (RankContext* ctx : contexts_) {
    if (dead_[ctx->rank()] != 0) continue;
    latest = std::max(latest, ctx->clock().time());
    earliest = std::min(earliest, ctx->clock().time());
    any = true;
  }
  if (!any) return;
  // Straggler-aware BSP: with a timeout configured, the cluster never
  // waits more than `timeout` past the earliest arrival — a later rank's
  // work for this op is abandoned (its contribution was excluded by the
  // collective) and its timeline snaps back to the group.
  const util::SimSeconds timeout = faults_.straggler_timeout_s;
  if (timeout > util::SimSeconds(0.0) && latest > earliest + timeout) {
    latest = earliest + timeout;
  }
  for (RankContext* ctx : contexts_) {
    if (dead_[ctx->rank()] == 0) ctx->clock().set_to(latest);
  }
}

void SimCluster::barrier_wait(std::size_t rank) {
  // Schedule-stress arrival jitter: a seeded number of yields before this
  // rank takes the barrier mutex, so different seeds explore different
  // arrival orders (and thus different "last arrival" ranks).
  if (analysis::schedule_stress_seed() != 0) {
    const std::uint64_t yields = analysis::stress_pick(rank * 0x9e3779b9u, 8);
    for (std::uint64_t i = 0; i < yields; ++i) std::this_thread::yield();
  }
  util::UniqueLock<analysis::CheckedMutex> lock(mutex_);
  const util::SimSeconds entry_s = contexts_[rank]->clock().time();
  const std::uint64_t my_generation = generation_;
  if (++arrived_ == alive_) {
    // Last arrival: BSP semantics, every clock advances to the straggler
    // (bounded by the straggler timeout when one is configured), and the
    // causal vector clocks merge to their common upper bound — the
    // happens-before edge every post-barrier consume relies on.
    align_clocks_locked();
    tracker_.on_barrier_release(dead_);
    view_epoch_at_release_ = view_epoch_;
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
  } else {
    // Manual wait loop (not wait(lock, pred)): the predicate lambda would
    // be analyzed as a separate function with no capability, while the
    // loop keeps the guarded read of generation_ in this annotated scope.
    while (generation_ == my_generation) cv_.wait(lock);
  }
  // Refresh the cached membership view while still holding the mutex:
  // every rank of this barrier round reads the same release snapshot, so
  // the cached epoch is identical cluster-wide at every op.
  contexts_[rank]->view_epoch_seen_ = view_epoch_at_release_;
  // Critical-path record: [arrival, aligned release] of this barrier round.
  // The generation is shared by every rank in the round, so the analyzer
  // can correlate arrivals and find the bounding (last) rank. A release
  // earlier than the arrival means the straggler timeout snapped this
  // rank's clock back — its overshoot is recorded as "abandoned" work.
  const util::SimSeconds release_s = contexts_[rank]->clock().time();
  lock.unlock();
  if (release_s >= entry_s) {
    cp_span(rank, "barrier", entry_s, release_s, my_generation);
  } else {
    cp_span(rank, "abandoned", release_s, entry_s, my_generation);
  }
}

void SimCluster::mark_crashed(std::size_t rank) {
  util::LockGuard<analysis::CheckedMutex> lock(mutex_);
  if (dead_[rank] != 0) return;
  dead_[rank] = 1;
  --alive_;
  // Membership change: the view epoch advances under the mutex; peers pick
  // the new value up from the snapshot of their next barrier release.
  ++view_epoch_;
  tracker_.on_membership_change(view_epoch_, dead_);
  // The dying rank's stack (and thus anything its slots point into) is
  // about to unwind: drop the references while peers are still parked.
  byte_slots_[rank] = {};
  float_slots_[rank] = {};
  FaultMetrics::get().rank_crashes.add(1.0);
  // Peers may already be waiting on a quorum that included this rank.
  if (alive_ > 0 && arrived_ == alive_) {
    align_clocks_locked();
    tracker_.on_barrier_release(dead_);
    view_epoch_at_release_ = view_epoch_;
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
  }
}

// The four membership accessors lock the barrier mutex: every membership
// *write* (mark_crashed, the admit_rejoins handshake, run()'s reset)
// happens under it, so a monitor thread polling these mid-run observes
// each membership transition atomically instead of racing the writer.
// Rank threads never call them on the collective hot path, so the extra
// acquire is off the simulated critical path.
bool SimCluster::rank_crashed(std::size_t rank) const {
  util::LockGuard<analysis::CheckedMutex> lock(mutex_);
  return rank < dead_.size() && dead_[rank] != 0;
}

std::size_t SimCluster::survivors() const {
  util::LockGuard<analysis::CheckedMutex> lock(mutex_);
  std::size_t count = 0;
  for (char d : dead_) count += d == 0 ? 1 : 0;
  return count;
}

bool SimCluster::rank_rejoined(std::size_t rank) const {
  util::LockGuard<analysis::CheckedMutex> lock(mutex_);
  return rank < rejoined_.size() && rejoined_[rank] != 0;
}

std::uint64_t SimCluster::view_epoch() const {
  util::LockGuard<analysis::CheckedMutex> lock(mutex_);
  return view_epoch_;
}

std::vector<std::vector<std::uint8_t>> RankContext::allgather(
    std::span<const std::uint8_t> send) {
  static telemetry::Counter& calls =
      telemetry::MetricsRegistry::global().counter("comm.allgather.calls");
  note_collective(calls, util::byte_count(send.size()));
  telemetry::TraceSpan span("allgather", "comm");
  const std::size_t op = begin_collective();
  SimCluster& c = *cluster_;
  c.tracker_.on_publish(rank_, op);
  cp_edge(rank_, "publish", clock_.time(), op);
  c.byte_slots_[rank_] = send;
  c.clock_slots_[rank_] = clock_.time();
  c.barrier_wait(rank_);  // all contributions and entry clocks visible

  const FaultPlan& plan = c.faults_;
  const bool faulty = !plan.empty();

  // Excluded peers: crashed ranks, plus ranks whose entry clock missed the
  // straggler deadline. Derived from barrier-published state only, so
  // every rank computes the identical set.
  std::vector<char> excluded;
  if (faulty) {
    excluded.assign(c.ranks_, 0);
    util::SimSeconds earliest{std::numeric_limits<double>::infinity()};
    for (std::size_t r = 0; r < c.ranks_; ++r) {
      if (c.dead_[r] == 0) earliest = std::min(earliest, c.clock_slots_[r]);
    }
    const util::SimSeconds timeout = plan.straggler_timeout_s;
    for (std::size_t r = 0; r < c.ranks_; ++r) {
      if (c.dead_[r] != 0) {
        excluded[r] = 1;
      } else if (timeout > util::SimSeconds(0.0) &&
                 c.clock_slots_[r] > earliest + timeout) {
        excluded[r] = 1;
        // Count each late contribution once: the lowest live rank reports.
        bool primary = true;
        for (std::size_t q = 0; q < rank_; ++q) {
          if (c.dead_[q] == 0) {
            primary = false;
            break;
          }
        }
        if (primary) FaultMetrics::get().late_contributions.add(1.0);
      }
    }
  }

  // Causality invariant (c): every surviving replica must have derived the
  // identical exclusion set and quorum from the barrier-published state.
  if (c.tracker_.active()) {
    const std::vector<char> effective = faulty ? excluded : std::vector<char>(c.ranks_, 0);
    std::size_t quorum = 0;
    for (char e : effective) quorum += e == 0 ? 1 : 0;
    c.tracker_.check_exclusion(rank_, op, effective, quorum);
    // Invariant (d): every replica observed the same membership view epoch
    // at this op — a rank acting on a stale view is protocol divergence.
    c.tracker_.check_view(rank_, op, view_epoch_seen_);
  }

  std::vector<std::vector<std::uint8_t>> gathered(c.ranks_);
  std::vector<util::Bytes> sizes;
  sizes.reserve(c.ranks_);
  util::SimSeconds recovery_s{};
  // (sender, recovery seconds) pairs for the critical-path retry spans.
  std::vector<std::pair<std::size_t, util::SimSeconds>> recoveries;
  // Ledger accumulators: the analytic expectation of the sampled recovery
  // below, plus retry/exclusion counts as rank 0 observed them.
  const bool ledger_on = ledger_records(rank_);
  util::SimSeconds predicted_recovery_s{};
  std::uint64_t ledger_retries = 0;
  std::uint64_t ledger_failed = 0;
  if (ledger_on && faulty) {
    for (char e : excluded) ledger_failed += e != 0 ? 1 : 0;
  }
  for (std::size_t r = 0; r < c.ranks_; ++r) {
    if (faulty && excluded[r] != 0) continue;  // stays an empty block
    // Invariants (a)+(b): the sender's publication happens-before this
    // read and belongs to this collective epoch.
    c.tracker_.on_consume(rank_, r, op);
    cp_edge(rank_, "consume", clock_.time(), op, static_cast<std::int32_t>(r));
    gathered[r].assign(c.byte_slots_[r].begin(), c.byte_slots_[r].end());
    sizes.push_back(util::byte_count(gathered[r].size()));
    if (faulty && plan.has_transport_faults()) {
      // The fate of sender r's block is keyed on (sender, op) alone and is
      // applied to every rank's copy — including r's own: a block damaged
      // at the source link is lost for the whole exchange, so all replicas
      // agree on the surviving contribution set. Recovery time is charged
      // only for blocks this rank actually received over the wire.
      const DeliveryOutcome outcome = resolve_delivery(plan, c.network_, r, op, sizes.back());
      if (r != rank_) {
        recovery_s += outcome.recovery_seconds;
        if (outcome.recovery_seconds > util::SimSeconds(0.0)) {
          recoveries.emplace_back(r, outcome.recovery_seconds);
        }
      }
      if (ledger_on) {
        if (r != rank_) {
          predicted_recovery_s += expected_recovery_s(plan, c.network_, sizes.back());
          ledger_retries += outcome.attempts - 1;
        }
        if (!outcome.delivered || outcome.corrupted) ++ledger_failed;
      }
      if (!outcome.delivered) {
        gathered[r].clear();
      } else if (outcome.corrupted) {
        plan.corrupt_payload(gathered[r], r, op, outcome.attempts - 1);
      }
      // The lowest live rank reports the per-delivery transport counters,
      // so a p-rank exchange counts each delivery exactly once.
      bool primary = true;
      for (std::size_t q = 0; q < rank_; ++q) {
        if (c.dead_[q] == 0) {
          primary = false;
          break;
        }
      }
      if (primary) {
        FaultMetrics& fm = FaultMetrics::get();
        if (outcome.attempts > 1) {
          fm.retransmits.add(static_cast<double>(outcome.attempts - 1));
        }
        fm.retransmit_bytes.add(outcome.extra_bytes.to_double());
        fm.recovery_seconds.add(outcome.recovery_seconds.to_double());
        if (!outcome.delivered || outcome.corrupted) fm.deliveries_failed.add(1.0);
      }
    }
  }
  const util::SimSeconds lossless_s = c.network_.allgatherv_time(sizes);
  // Critical-path spans: the lossless propagation, then each sender's
  // sampled recovery time laid out sequentially and attributed (peer) to
  // the faulted sender.
  {
    util::SimSeconds t = clock_.time();
    if (lossless_s > util::SimSeconds(0.0)) cp_span(rank_, "collective", t, t + lossless_s, op);
    t += lossless_s;
    for (const auto& [sender, seconds] : recoveries) {
      cp_span(rank_, "retry", t, t + seconds, op, static_cast<std::int32_t>(sender));
      t += seconds;
    }
  }
  clock_.advance(lossless_s + recovery_s);
  if (ledger_on) {
    util::Bytes payload{};
    for (util::Bytes size : sizes) payload += size;
    telemetry::RunLedger::global().record_collective(
        {"allgather", op, payload, lossless_s + predicted_recovery_s,
         lossless_s + recovery_s, util::SimSeconds(0.0), ledger_retries, ledger_failed});
  }
  c.barrier_wait(rank_);  // slots may be reused
  return gathered;
}

void RankContext::allreduce_sum(std::span<float> data) {
  static telemetry::Counter& calls =
      telemetry::MetricsRegistry::global().counter("comm.allreduce.calls");
  note_collective(calls, util::byte_count(data.size_bytes()));
  telemetry::TraceSpan span("allreduce", "comm");
  const std::size_t op = begin_collective();
  SimCluster& c = *cluster_;
  c.tracker_.on_publish(rank_, op);
  cp_edge(rank_, "publish", clock_.time(), op);
  c.float_slots_[rank_] = data;
  c.barrier_wait(rank_);
  // Every rank reduces redundantly into a private buffer; identical
  // floating-point order on all ranks keeps replicas bit-identical.
  // Crashed ranks simply drop out of the sum.
  std::vector<float> reduced(data.size(), 0.0f);
  std::size_t live = 0;
  for (std::size_t r = 0; r < c.ranks_; ++r) {
    if (c.dead_[r] != 0) continue;
    c.tracker_.on_consume(rank_, r, op);
    cp_edge(rank_, "consume", clock_.time(), op, static_cast<std::int32_t>(r));
    auto peer = c.float_slots_[r];
    if (peer.size() != data.size()) {
      throw std::invalid_argument("allreduce_sum: mismatched sizes across ranks");
    }
    for (std::size_t i = 0; i < peer.size(); ++i) reduced[i] += peer[i];
    ++live;
  }
  // Invariant (c) for the sum: replicas must agree on who dropped out.
  if (c.tracker_.active()) {
    c.tracker_.check_exclusion(rank_, op, {c.dead_.data(), c.dead_.size()}, live);
    c.tracker_.check_view(rank_, op, view_epoch_seen_);
  }
  const util::Bytes bytes = util::byte_count(data.size() * sizeof(float));
  const util::SimSeconds cost_s = c.network_.allreduce_time(bytes, live);
  if (cost_s > util::SimSeconds(0.0)) {
    cp_span(rank_, "collective", clock_.time(), clock_.time() + cost_s, op);
  }
  clock_.advance(cost_s);
  if (ledger_records(rank_)) {
    // No transport faults on the reduction path: predicted == charged.
    telemetry::RunLedger::global().record_collective(
        {"allreduce", op, bytes, cost_s, cost_s, util::SimSeconds(0.0), 0,
         static_cast<std::uint64_t>(c.ranks_ - live)});
  }
  c.barrier_wait(rank_);  // all ranks done reading before anyone writes
  std::copy(reduced.begin(), reduced.end(), data.begin());
  c.barrier_wait(rank_);
}

std::vector<std::size_t> RankContext::admit_rejoins() {
  SimCluster& c = *cluster_;
  if (!c.faults_.has_recovery()) return {};
  // Eligibility is pure plan + own-op arithmetic: a rank with a recovery
  // fate whose rejoin op has been reached deterministically crashed at its
  // (earlier) crash op, so every live rank computes the identical set
  // without reading shared membership state. rejoined_ is only written
  // while all live ranks are parked inside this very handshake, so the
  // read below is ordered by the surrounding barriers.
  std::vector<std::size_t> eligible;
  for (std::size_t r = 0; r < c.ranks_; ++r) {
    if (r == rank_ || c.rejoined_[r] != 0) continue;
    if (c.faults_.rejoin_op(r) <= op_index_) eligible.push_back(r);
  }
  if (eligible.empty()) return {};

  // Membership barrier A: all live ranks have agreed to admit now; the
  // rejoiners are (or will shortly be) parked in await_rejoin.
  c.barrier_wait(rank_);
  bool primary = true;
  for (std::size_t q = 0; q < rank_; ++q) {
    if (c.dead_[q] == 0) {
      primary = false;
      break;
    }
  }
  if (primary) {
    util::UniqueLock<analysis::CheckedMutex> lock(c.mutex_);
    // Wait for every rejoiner's thread to finish unwinding and park.
    // (Manual wait loop so the guarded reads of rejoin_waiting_ stay in
    // this annotated scope rather than an opaque predicate lambda.)
    for (;;) {
      bool all_parked = true;
      for (std::size_t r : eligible) {
        if (c.rejoin_waiting_[r] == 0) {
          all_parked = false;
          break;
        }
      }
      if (all_parked) break;
      c.cv_.wait(lock);
    }
    for (std::size_t r : eligible) {
      c.dead_[r] = 0;
      c.rejoined_[r] = 1;
      ++c.alive_;
      c.tracker_.on_rejoin(r, c.dead_);
    }
    ++c.view_epoch_;
    c.tracker_.on_membership_change(c.view_epoch_, c.dead_);
    c.rejoin_op_slot_ = op_index_;
    c.rejoin_clock_slot_ = clock_.time();
    c.rejoin_cohort_slot_ = eligible;
    c.rejoin_donor_slot_ = rank_;
    FaultMetrics::get().rank_rejoins.add(static_cast<double>(eligible.size()));
    c.cv_.notify_all();
  }
  // Membership barrier B: the quorum now counts the rejoiners, whose
  // await_rejoin arrives here after syncing op index and clock. Its
  // release snapshot hands every rank the bumped view epoch.
  c.barrier_wait(rank_);
  return eligible;
}

bool RankContext::await_rejoin() {
  SimCluster& c = *cluster_;
  {
    util::UniqueLock<analysis::CheckedMutex> lock(c.mutex_);
    c.rejoin_waiting_[rank_] = 1;
    ++c.parked_threads_;
    if (c.exited_threads_ + c.parked_threads_ == c.ranks_) c.draining_ = true;
    c.cv_.notify_all();  // wake an admitter waiting for us to park
    while (c.dead_[rank_] != 0 && !c.draining_) c.cv_.wait(lock);
    c.rejoin_waiting_[rank_] = 0;
    --c.parked_threads_;
    if (c.dead_[rank_] != 0) return false;  // run drained before our rejoin op
    op_index_ = c.rejoin_op_slot_;
    clock_.set_to(c.rejoin_clock_slot_);
  }
  c.barrier_wait(rank_);  // membership barrier B, counted in the new quorum
  return true;
}

const std::vector<std::size_t>& RankContext::rejoin_cohort() const {
  return cluster_->rejoin_cohort_slot_;
}

std::size_t RankContext::rejoin_donor() const { return cluster_->rejoin_donor_slot_; }

RankContext::PeerTransferResult RankContext::peer_transfer(std::span<const std::uint8_t> send,
                                                           std::size_t from, std::size_t to) {
  static telemetry::Counter& calls =
      telemetry::MetricsRegistry::global().counter("comm.peer_transfer.calls");
  note_collective(calls, rank_ == from ? util::byte_count(send.size()) : util::Bytes{});
  telemetry::TraceSpan span("peer_transfer", "comm");
  const std::size_t op = begin_collective();
  SimCluster& c = *cluster_;
  if (from >= c.ranks_ || to >= c.ranks_ || from == to) {
    throw std::invalid_argument("peer_transfer: bad endpoint ranks");
  }
  if (rank_ == from) {
    c.tracker_.on_publish(rank_, op);
    cp_edge(rank_, "publish", clock_.time(), op);
    c.byte_slots_[rank_] = send;
  }
  c.barrier_wait(rank_);
  if (c.tracker_.active()) c.tracker_.check_view(rank_, op, view_epoch_seen_);
  if (c.dead_[from] != 0) throw std::runtime_error("peer_transfer: source rank crashed");
  if (c.dead_[to] != 0) throw std::runtime_error("peer_transfer: destination rank crashed");

  // The delivery fate is a pure function of (plan, sender, op), so every
  // rank computes it — the receiver to charge the sampled recovery, the
  // rest to agree on `ok` (a retry loop must be a cluster-wide decision).
  const util::Bytes bytes = util::byte_count(c.byte_slots_[from].size());
  const util::SimSeconds p2p_s = c.network_.p2p_time(bytes);
  DeliveryOutcome outcome;
  util::SimSeconds predicted_s = p2p_s;
  if (c.faults_.has_transport_faults()) {
    outcome = resolve_delivery(c.faults_, c.network_, from, op, bytes);
    predicted_s += expected_recovery_s(c.faults_, c.network_, bytes);
  }

  PeerTransferResult result;
  result.ok = outcome.delivered && !outcome.corrupted;
  if (rank_ == to) {
    c.tracker_.on_consume(rank_, from, op);
    cp_edge(rank_, "consume", clock_.time(), op, static_cast<std::int32_t>(from));
    result.bytes.assign(c.byte_slots_[from].begin(), c.byte_slots_[from].end());
    if (!outcome.delivered) {
      result.bytes.clear();
    } else if (outcome.corrupted) {
      c.faults_.corrupt_payload(result.bytes, from, op, outcome.attempts - 1);
    }
    util::SimSeconds t = clock_.time();
    if (p2p_s > util::SimSeconds(0.0)) cp_span(rank_, "collective", t, t + p2p_s, op);
    t += p2p_s;
    if (outcome.recovery_seconds > util::SimSeconds(0.0)) {
      cp_span(rank_, "retry", t, t + outcome.recovery_seconds, op,
              static_cast<std::int32_t>(from));
    }
    clock_.advance(p2p_s + outcome.recovery_seconds);
    FaultMetrics& fm = FaultMetrics::get();
    fm.state_transfer_bytes.add(bytes.to_double() + outcome.extra_bytes.to_double());
    if (outcome.attempts > 1) fm.retransmits.add(static_cast<double>(outcome.attempts - 1));
    fm.recovery_seconds.add(outcome.recovery_seconds.to_double());
    if (!result.ok) fm.deliveries_failed.add(1.0);
  } else if (rank_ == from) {
    // The donor's link is busy serializing the blob for the same time.
    if (p2p_s > util::SimSeconds(0.0)) {
      cp_span(rank_, "collective", clock_.time(), clock_.time() + p2p_s, op);
    }
    clock_.advance(p2p_s);
  }
  if (ledger_records(rank_)) {
    // The recording rank reports the receiver's cost pair (computable
    // everywhere — the fate is pure), so the row reconciles exactly on a
    // lossless plan and in expectation under transport faults.
    telemetry::RunLedger::global().record_collective(
        {"state_transfer", op, bytes, predicted_s, p2p_s + outcome.recovery_seconds,
         util::SimSeconds(0.0), outcome.attempts - 1, result.ok ? 0u : 1u});
  }
  c.barrier_wait(rank_);  // slots may be reused
  return result;
}

std::vector<util::SimSeconds> SimCluster::run(
    std::size_t ranks, const std::function<void(RankContext&)>& fn) {
  if (ranks == 0) throw std::invalid_argument("SimCluster: ranks must be >= 1");
  // Each run is a fresh simulation (clocks restart at zero) and therefore a
  // fresh trace process.
  if (telemetry::Tracer::global().enabled()) telemetry::Tracer::global().begin_sim_session();
  ranks_ = ranks;
  byte_slots_.assign(ranks, {});
  float_slots_.assign(ranks, {});
  clock_slots_.assign(ranks, util::SimSeconds{});
  rejoin_cohort_slot_.clear();
  rejoin_donor_slot_ = 0;
  tracker_.reset(ranks);
  {
    // No rank threads exist yet, but a monitor thread from a previous run
    // may still be polling the membership accessors, and the guarded
    // members must be written under their capability anyway. One
    // uncontended acquire per run.
    util::LockGuard<analysis::CheckedMutex> lock(mutex_);
    alive_ = ranks;
    arrived_ = 0;
    generation_ = 0;
    dead_.assign(ranks, 0);
    view_epoch_ = 0;
    view_epoch_at_release_ = 0;
    rejoin_waiting_.assign(ranks, 0);
    rejoined_.assign(ranks, 0);
    rejoin_op_slot_ = 0;
    rejoin_clock_slot_ = util::SimSeconds{};
    exited_threads_ = 0;
    parked_threads_ = 0;
    draining_ = false;
  }

  std::vector<RankContext> contexts;
  contexts.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) contexts.push_back(RankContext(*this, r));
  contexts_.clear();
  for (auto& ctx : contexts) contexts_.push_back(&ctx);

  std::exception_ptr first_error;
  util::Mutex error_mutex;

  auto body = [&](std::size_t r) {
    try {
      telemetry::Profiler::register_current_thread();
      telemetry::ScopedRank bind(static_cast<std::int32_t>(r),
                                 contexts[r].clock().time_ptr());
      fn(contexts[r]);
    } catch (const RankCrashed&) {
      // Planned fault: mark_crashed already removed the rank from the
      // quorum and released its peers; survivors keep training.
    } catch (...) {
      {
        util::LockGuard<util::Mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      // Release peers waiting in the barrier so the cluster drains instead
      // of deadlocking; they will observe mismatched state and finish or
      // fail on their own.
      util::LockGuard<analysis::CheckedMutex> lock(mutex_);
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    }
    // Drain accounting: once every non-parked thread has exited, no
    // admission can ever come — wake threads parked in await_rejoin so
    // they return (denied) instead of hanging the join below.
    util::LockGuard<analysis::CheckedMutex> lock(mutex_);
    ++exited_threads_;
    if (exited_threads_ + parked_threads_ == ranks_) {
      draining_ = true;
      cv_.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) threads.emplace_back(body, r);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);

  std::vector<util::SimSeconds> clocks(ranks);
  for (std::size_t r = 0; r < ranks; ++r) clocks[r] = contexts[r].clock().time();
  contexts_.clear();
  return clocks;
}

}  // namespace fftgrad::comm
