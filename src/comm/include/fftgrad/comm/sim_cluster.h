// In-process multi-rank cluster: the MPI/NCCL substitute.
//
// SimCluster::run(p, fn) spawns p threads, one per logical rank, and hands
// each a RankContext. Collectives exchange real bytes through shared
// memory (so gradient math downstream of a collective is bit-exact with a
// genuine distributed run), while a per-rank SimClock accrues the time the
// configured NetworkModel says the same exchange would have cost on the
// modelled interconnect. Compute time is charged explicitly by callers
// (e.g. the trainer charges measured forward/backward wall time), keeping
// the simulated timeline independent of host scheduling jitter.
//
// Synchronization uses a reusable two-phase barrier; collectives are
// bulk-synchronous, matching the paper's BSP parallelization scheme.
//
// Fault tolerance: a SimCluster may carry a FaultPlan (fault_injection.h).
// Each collective then counts as one "op" per rank; at op entry the plan
// may crash the rank (it leaves the cluster; survivors' barriers re-target
// the remaining rank count and its contributions read as absent) or
// straggle it (extra simulated delay; with a straggler
// timeout configured, the late rank's contribution is excluded everywhere
// and survivors proceed after the timeout instead of absorbing the full
// delay). Inside allgather — the gradient-exchange path — every peer
// block additionally passes through the fault-injecting transport: packet
// drop/corruption triggers bounded receiver-driven retransmission whose
// backoff and bytes are charged to the receiver's clock through the
// NetworkModel, and a delivery that stays broken after the retry budget is
// returned as an empty (dropped) or damaged (corrupt) block for the
// caller's checksum layer to reject. An empty FaultPlan leaves every code
// path and every charged time bit-identical to the fault-free cluster.
//
// Membership epochs and elastic rejoin: the cluster view (live set +
// monotone epoch counter) is versioned state. Every membership change — a
// crash leaving the quorum, a recovered rank re-entering it — bumps the
// view epoch under the barrier mutex, and each rank refreshes its cached
// copy of the epoch from a per-release snapshot taken by whichever thread
// performs the barrier release. Because views change only at barrier
// releases and every rank of a barrier round reads the same snapshot, the
// cached view is identical on all live ranks at every op — which is what
// lets collectives cross-check it (CausalityTracker::check_view) and lets
// the analysis trailer carry it as checked wire state. A crash spec with a
// finite rejoin op makes the crash a bounded blip: the crashed rank's
// thread parks in await_rejoin(), the survivors agree (pure plan + op
// arithmetic, no shared reads) to re-admit it once they reach the rejoin
// op, and admission runs as a two-barrier membership handshake that grows
// the quorum, bumps the view epoch, and fast-forwards the rejoiner's op
// index and clock to the group's. State (weights, optimizer, residuals) is
// the trainer's business: it ships a CRC-framed blob from a designated
// live donor through peer_transfer(), which charges real NetworkModel time
// and reconciles exactly in the run ledger on a lossless plan.
//
// Concurrency analysis: the barrier mutex is an analysis::CheckedMutex
// (owner + lock-order tracked in debug/sanitizer builds), and under the
// deterministic-schedule stress mode (fftgrad/analysis/schedule_stress.h)
// every rank spins through a seeded number of yields before arriving at a
// barrier, perturbing arrival order per seed. Collective results must be
// bit-identical across seeds — each rank reduces in rank order from the
// shared slots, independent of arrival order. Fault decisions are keyed on
// (seed, sender, op), never on arrival order, so they share the guarantee.
//
// Causality analysis (fftgrad/analysis/causality.h, FFTGRAD_ANALYSIS
// builds): every collective publication ticks the rank's vector clock,
// every barrier release merges the live ranks' clocks, and every consumed
// block is checked for (a) a happens-before edge from its sender's
// publication, (b) a matching collective epoch, and (c) — after
// straggler-timeout/crash handling — an exclusion set and quorum identical
// on every surviving replica. Violations route through the analysis
// violation handler with the op index, ranks, and clocks involved.
//
// Critical-path telemetry (fftgrad/telemetry/critical_path.h): when the
// span tracer is enabled, every charged SimClock advance emits a "cp" leaf
// span — "collective" for lossless propagation, "retry" (peer = faulted
// sender) for sampled recovery, "straggle" for injected slowdown — and
// every barrier_wait records its [arrival, release] window keyed by the
// barrier generation ("abandoned" when the straggler timeout snapped the
// clock back). Publish/consume causality edges are mirrored as zero-length
// "cp-edge" records carrying simulated timestamps. Together the cp spans
// partition each rank's simulated clock, which is what lets the analyzer
// attribute end-to-end iteration time exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <span>
#include <vector>

#include "fftgrad/analysis/causality.h"
#include "fftgrad/analysis/checked_mutex.h"
#include "fftgrad/comm/fault_injection.h"
#include "fftgrad/comm/network_model.h"
#include "fftgrad/util/annotated_mutex.h"
#include "fftgrad/util/thread_annotations.h"

namespace fftgrad::comm {

/// Simulated per-rank clock. Charging is dimensionally typed: only
/// SimSeconds can advance it, so a wall-clock measurement or a raw byte
/// count cannot be charged by accident (use util::sim_from_wall for the
/// one sanctioned crossing).
class SimClock {
 public:
  void advance(util::SimSeconds seconds) { time_ += seconds.to_double(); }
  /// BSP synchronization: every rank's clock jumps to the barrier max.
  void set_to(util::SimSeconds seconds) { time_ = seconds.to_double(); }
  util::SimSeconds time() const { return util::SimSeconds(time_); }
  /// Stable address of the raw clock value, for binding the simulated
  /// timeline into telemetry (telemetry::ScopedRank) without a dependency
  /// cycle. Read-only and for telemetry binding only.
  const double* time_ptr() const { return &time_; }

 private:
  double time_ = 0.0;  // raw storage: telemetry binds a stable double*
};

class SimCluster;

/// Per-rank handle passed to the rank function.
class RankContext {
 public:
  std::size_t rank() const { return rank_; }
  std::size_t size() const;
  SimClock& clock() { return clock_; }
  const NetworkModel& network() const;

  /// Collectives completed by this rank (the FaultPlan's op coordinate).
  std::size_t op_index() const { return op_index_; }

  /// The membership view epoch this rank observed at its last barrier
  /// release (0 until the first membership change). Identical on every
  /// live rank at the same op — see the class comment's snapshot protocol.
  std::uint64_t view_epoch() const { return view_epoch_seen_; }

  /// Block until every rank arrives; aligns all clocks to the maximum
  /// (BSP semantics).
  void barrier();

  /// Allgather of possibly differently-sized byte blocks. Returns all
  /// ranks' contributions indexed by rank; charges allgatherv_time. Under
  /// a FaultPlan, a crashed, timed-out, or undeliverable peer's entry is
  /// an empty vector — identical on every rank — and recovery time for
  /// retransmitted blocks is charged on top.
  std::vector<std::vector<std::uint8_t>> allgather(std::span<const std::uint8_t> send);

  /// Element-wise sum allreduce of float vectors (all ranks pass equal
  /// sizes); result overwrites `data`. Charges allreduce_time. Crashed
  /// ranks drop out of the sum.
  void allreduce_sum(std::span<float> data);

  /// Membership handshake: re-admit every crashed rank whose plan rejoin
  /// op has been reached. Pure plan + op-index arithmetic decides
  /// eligibility, so all live ranks agree without touching shared state;
  /// when nobody is eligible this is free (no barrier, no op). Otherwise
  /// all live ranks rendezvous, the lowest live rank flips the rejoiners
  /// back into the quorum (bumping the view epoch and syncing their op
  /// index and clock to the group's), and a second barrier — now counting
  /// the rejoiners — completes the epoch transition. Returns the ranks
  /// admitted this call (identical on every live rank).
  std::vector<std::size_t> admit_rejoins();

  /// Called by a crashed rank's thread (after catching RankCrashed) when
  /// its plan carries a rejoin op: parks until the survivors admit it via
  /// admit_rejoins(). Returns true once re-admitted — op index, clock, and
  /// cached view epoch are already synced to the group — or false if the
  /// run drained (every other thread exited) before the rejoin op was
  /// reached, in which case the rank stays dead.
  bool await_rejoin();

  /// The admission cohort of the most recent rejoin handshake (what
  /// admit_rejoins returned to the survivors), and the handshake's state
  /// donor — its primary, i.e. the lowest rank that was live when admission
  /// ran. Valid from the handshake's completing barrier until the next
  /// handshake; a just-admitted rank reads these to learn which transfers
  /// it participates in and who serves its state.
  const std::vector<std::size_t>& rejoin_cohort() const;
  std::size_t rejoin_donor() const;

  /// Result of a peer_transfer: `ok` is derived from the pure per-(sender,
  /// op) delivery fate, so every rank — not just the receiver — agrees on
  /// whether the transfer must be retried.
  struct PeerTransferResult {
    std::vector<std::uint8_t> bytes;  ///< payload at rank `to`; empty elsewhere
    bool ok = true;                   ///< delivered un-corrupted
  };

  /// Point-to-point state transfer as a cluster-wide collective (all live
  /// ranks participate; one op). Rank `from` publishes `send`; rank `to`
  /// receives it. Both endpoints charge p2p_time(bytes); under transport
  /// faults the receiver additionally charges the sampled retransmission
  /// recovery, and a delivery that stays broken is returned empty/damaged
  /// with ok=false. The ledger records a "state_transfer" row pairing the
  /// analytic prediction with the charged cost — exactly equal on a
  /// lossless plan.
  PeerTransferResult peer_transfer(std::span<const std::uint8_t> send, std::size_t from,
                                   std::size_t to);

 private:
  friend class SimCluster;
  RankContext(SimCluster& cluster, std::size_t rank) : cluster_(&cluster), rank_(rank) {}

  /// Per-collective fault hook: bumps the op counter, fires a scheduled
  /// crash (throws RankCrashed), and charges straggler slowdown. Returns
  /// the op index of the collective being entered.
  std::size_t begin_collective();

  SimCluster* cluster_;
  std::size_t rank_;
  std::size_t op_index_ = 0;
  /// View epoch observed at this rank's last barrier release.
  std::uint64_t view_epoch_seen_ = 0;
  SimClock clock_;
};

class SimCluster {
 public:
  explicit SimCluster(NetworkModel network, FaultPlan faults = {})
      : network_(std::move(network)), faults_(std::move(faults)) {}

  /// Run `fn(ctx)` on `ranks` threads; returns the final per-rank clocks.
  /// Exceptions thrown by any rank are rethrown (first one wins) after all
  /// ranks have been joined — except RankCrashed, which marks the rank
  /// dead (query rank_crashed() afterwards) and lets survivors finish.
  std::vector<util::SimSeconds> run(std::size_t ranks,
                                    const std::function<void(RankContext&)>& fn);

  const NetworkModel& network() const { return network_; }
  const FaultPlan& faults() const { return faults_; }

  /// Whether `rank` died (via its FaultPlan crash) during the last run()
  /// and was not re-admitted. Safe to call from a monitor thread mid-run:
  /// the membership accessors below take the barrier mutex, so they always
  /// observe a consistent membership state, never a half-applied change.
  bool rank_crashed(std::size_t rank) const FFTGRAD_EXCLUDES(mutex_);
  /// Ranks that survived the last run().
  std::size_t survivors() const FFTGRAD_EXCLUDES(mutex_);
  /// Whether `rank` was re-admitted after a crash during the last run().
  bool rank_rejoined(std::size_t rank) const FFTGRAD_EXCLUDES(mutex_);
  /// Current membership view epoch (bumped on every crash and rejoin).
  std::uint64_t view_epoch() const FFTGRAD_EXCLUDES(mutex_);

  /// The run's causality tracker (vector clocks + protocol invariants).
  /// A no-op stub unless FFTGRAD_ANALYSIS is compiled in; re-armed by each
  /// run(). Exposed so trainers can feed cross-rank agreement checks (and
  /// tests can seed protocol mutations) through the cluster's instance.
  analysis::CausalityTracker& causality() { return tracker_; }

 private:
  friend class RankContext;

  /// `rank` identifies the arriving rank; it seeds the stress-mode arrival
  /// jitter and is otherwise unused.
  void barrier_wait(std::size_t rank) FFTGRAD_EXCLUDES(mutex_);
  void align_clocks_locked() FFTGRAD_REQUIRES(mutex_);
  /// Permanently remove `rank` from the cluster: clears its slots, shrinks
  /// the barrier quorum, and releases peers already waiting on it.
  void mark_crashed(std::size_t rank) FFTGRAD_EXCLUDES(mutex_);

  NetworkModel network_;
  FaultPlan faults_;
  std::size_t ranks_ = 0;

  // mutable: the const membership accessors above lock it so monitor
  // threads can poll membership mid-run.
  mutable analysis::CheckedMutex mutex_{"SimCluster.barrier_mutex"};
  // condition_variable_any: CheckedMutex is Lockable but not std::mutex.
  std::condition_variable_any cv_;
  std::size_t arrived_ FFTGRAD_GUARDED_BY(mutex_) = 0;
  std::size_t alive_ FFTGRAD_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ FFTGRAD_GUARDED_BY(mutex_) = 0;

  // Collective exchange slots, indexed by rank.
  //
  // DELIBERATELY UNANNOTATED: these (and the other "barrier-ordered"
  // members below) are written before a barrier and read after one — the
  // happens-before edge is the barrier round, not a critical section, so
  // GUARDED_BY would be a false claim and the analysis would force
  // pointless locking. A wrong annotation is worse than none; the ordering
  // argument lives in the comments and is exercised by the tsan preset.
  std::vector<std::span<const std::uint8_t>> byte_slots_;
  std::vector<std::span<float>> float_slots_;
  // Entry-time clocks published before a collective's first barrier, for
  // the straggler-timeout deadline; dead/late flags for the current op.
  // All are written before a barrier and read after one (or under the
  // barrier mutex), which is what makes the plain vectors race-free.
  // dead_ is barrier-ordered on the rank threads' hot path but every
  // *write* happens under mutex_, so the locked accessors above can also
  // read it consistently from outside the cohort.
  std::vector<util::SimSeconds> clock_slots_;
  std::vector<char> dead_;
  std::vector<char> late_;
  std::vector<RankContext*> contexts_;

  // Membership view: epoch counter bumped under the mutex on every crash
  // and rejoin, plus the per-release snapshot each rank copies into its
  // RankContext while still holding the barrier mutex (see barrier_wait).
  std::uint64_t view_epoch_ FFTGRAD_GUARDED_BY(mutex_) = 0;
  std::uint64_t view_epoch_at_release_ FFTGRAD_GUARDED_BY(mutex_) = 0;
  // Rejoin handshake state: which crashed threads are parked in
  // await_rejoin, which ranks already used their one recovery cycle, and
  // the op index / clock the rejoiners fast-forward to. The handshake
  // fields are mutex-guarded; rejoined_ and the cohort/donor slots are
  // barrier-ordered (read by survivors after membership barrier B).
  std::vector<char> rejoin_waiting_ FFTGRAD_GUARDED_BY(mutex_);
  std::vector<char> rejoined_;
  std::size_t rejoin_op_slot_ FFTGRAD_GUARDED_BY(mutex_) = 0;
  util::SimSeconds rejoin_clock_slot_ FFTGRAD_GUARDED_BY(mutex_){};
  std::vector<std::size_t> rejoin_cohort_slot_;
  std::size_t rejoin_donor_slot_ = 0;
  // Drain detection: threads done with the rank fn vs threads parked in
  // await_rejoin. When every non-parked thread has exited, no admission
  // can ever come and the parked rejoiners are woken with a denial.
  std::size_t exited_threads_ FFTGRAD_GUARDED_BY(mutex_) = 0;
  std::size_t parked_threads_ FFTGRAD_GUARDED_BY(mutex_) = 0;
  bool draining_ FFTGRAD_GUARDED_BY(mutex_) = false;

  analysis::CausalityTracker tracker_;
};

}  // namespace fftgrad::comm
