// Causality analyzer: vector-clock happens-before tracking and
// protocol-invariant validation for the simulated cluster.
//
// TSan and FFTGRAD_ASSERT_HELD see *thread* races; this layer sees
// *rank-level protocol* races — a rank consuming a mailbox block with no
// happens-before edge from its sender, two replicas disagreeing on which
// contributions survived a straggler timeout, or model replicas silently
// diverging — the class of bug that corrupts converged accuracy instead of
// crashing.
//
// Mechanics. Every rank carries a VectorClock with one component per rank:
//
//   * tick on send   — publishing a contribution into a collective bumps
//                      the sender's own component and records a
//                      publication {clock snapshot, epoch = op index};
//   * join on receive — a verified receive (trailer or tracker check)
//                      establishes the sender's snapshot <= the consumer's
//                      clock, i.e. the write happens-before the read;
//   * merge at barriers — the rank that releases a barrier generation
//                      joins every live rank's clock into the common
//                      upper bound (BSP: the barrier is a full sync).
//
// The tracker asserts, on every consumed block, that (a) the sender's
// publication happens-before the consumer's read, (b) the block's epoch
// (collective op index) matches the consumer's, and (c) all surviving
// replicas computed the identical exclusion set and quorum after
// straggler/crash handling. cluster_train additionally feeds a
// per-iteration state hash through check_agreement() so replica divergence
// is caught at the iteration that caused it. Violations are reported
// through fftgrad/analysis/check.h with the op index, ranks, and clocks
// involved.
//
// Wire integration: collective frames may carry an analysis trailer (the
// sender's clock + epoch, encode_trailer/decode_trailer below) so the
// happens-before evidence travels with the bytes and is re-verified at the
// consumer from what was actually received.
//
// Compile-time gating: VectorClock and the trailer codec are plain value
// code, always compiled (the wire format must not change shape between
// build modes — a Release sender omits the trailer, an analysis reader
// accepts its absence). The CausalityTracker and the protocol-mutation
// hook compile to empty no-op stubs unless FFTGRAD_ANALYSIS is on, so
// Release collectives pay nothing.
//
// Proving the detector: set_mutation() seeds one of seven protocol mutants
// (reordered delivery, stale epoch, dropped clock join, exclusion-set
// desync, quorum mismatch, state-hash divergence, stale membership view)
// into otherwise-correct collectives; tests/test_causality.cpp asserts
// every mutant is flagged and the clean suite reports zero violations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fftgrad/util/config.h"
#include "fftgrad/util/taint.h"
#include "fftgrad/util/thread_annotations.h"

#include "fftgrad/analysis/check.h"

#if FFTGRAD_ANALYSIS
#include <atomic>
#include <map>

#include "fftgrad/util/annotated_mutex.h"
#endif

namespace fftgrad::analysis {

// ---------------------------------------------------------------------------
// Vector clock algebra (always compiled; pure value type).

/// One logical-clock component per rank. Component r counts rank r's
/// publications observed (directly or transitively) by the clock's owner.
class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t ranks) : components_(ranks, 0) {}
  /// Adopt explicit component values (wire decoding, test fixtures).
  explicit VectorClock(std::vector<std::uint64_t> components)
      : components_(std::move(components)) {}

  std::size_t size() const { return components_.size(); }
  std::uint64_t component(std::size_t rank) const { return components_[rank]; }

  /// Local event on `rank` (a publication): bump own component.
  void tick(std::size_t rank) { ++components_[rank]; }

  /// Component-wise max with `other` (message receive / barrier merge).
  /// Sizes must match; join with a larger clock is a protocol error the
  /// caller should have prevented (tracked clocks are sized at run start).
  void join(const VectorClock& other);

  /// Strict happens-before: every component <= other's and at least one <.
  /// (Equal clocks denote the same cut, not an ordering.)
  bool happens_before(const VectorClock& other) const;

  /// True when neither clock happens-before the other and they differ.
  bool concurrent_with(const VectorClock& other) const;

  /// Causal-delivery test for a received snapshot: every component <=
  /// other's (equality allowed). This is the consumable form of (a): the
  /// sender's snapshot is inside the consumer's causal past.
  bool included_in(const VectorClock& other) const;

  bool operator==(const VectorClock& other) const { return components_ == other.components_; }
  bool operator!=(const VectorClock& other) const { return !(*this == other); }

  /// "[3,0,7]" — the form violation reports embed.
  std::string to_string() const;

 private:
  std::vector<std::uint64_t> components_;
};

// ---------------------------------------------------------------------------
// Wire analysis trailer (always compiled).

/// What a frame's analysis trailer carries: who sent it, during which
/// collective epoch (the sender's op index), under which membership view
/// epoch (SimCluster's crash/rejoin counter as the sender observed it at
/// publication), and the sender's clock at publication time.
struct AnalysisTrailer {
  std::uint32_t sender = 0;
  std::uint64_t epoch = 0;
  std::uint64_t view_epoch = 0;
  VectorClock clock;
};

/// Byte layout: [u32 magic "FGAT"][u32 sender][u64 epoch][u64 view_epoch]
/// [u64 ranks][u64 x ranks components]. Fixed-width little-endian PODs,
/// matching the frame body conventions in fftgrad/core/compressor.h.
inline constexpr std::uint32_t kTrailerMagic = 0x46474154u;  // "FGAT"

std::vector<std::uint8_t> encode_trailer(const AnalysisTrailer& trailer);

/// Parse an encode_trailer() blob. Throws std::runtime_error on a
/// truncated buffer, bad magic, a rank count whose component payload
/// cannot fit, or trailing garbage. The trailer rode in on the wire, so it
/// comes back Untrusted: release it through a validator asserting this
/// receiver's expectations (sender/rank count consistent with the cluster).
util::Untrusted<AnalysisTrailer> decode_trailer(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// Protocol-mutation hook (test-only): seed one deliberate protocol bug
// into otherwise-correct collectives to prove the detector catches it.

enum class ProtocolMutation : std::uint8_t {
  kNone = 0,
  kReorderDelivery,      ///< consumer reads the sender's *previous* publication
  kStaleEpoch,           ///< sender publishes without bumping its epoch
  kDropClockJoin,        ///< barrier merge skips one rank's clock join
  kDesyncExclusion,      ///< one rank computes a different exclusion set
  kQuorumMismatch,       ///< one rank disagrees on the surviving quorum
  kStateHashDivergence,  ///< one rank reports a divergent state hash
  kStaleViewEpoch,       ///< one rank acts on (and wires) an outdated membership view
};

#if FFTGRAD_ANALYSIS

/// Per-cluster happens-before tracker. One instance lives inside each
/// SimCluster; reset(ranks) re-arms it for a run. Thread-safety contract
/// mirrors the cluster's slot discipline: clocks_[r] is written by rank
/// r's thread (tick) and by the barrier-releasing thread (merge, while
/// every other rank is parked); publications are written by the owner
/// before a barrier and read by consumers after it; the cross-rank
/// agreement maps are mutex-guarded.
class CausalityTracker {
 public:
  /// Arm for a `ranks`-wide run, clearing all prior state.
  void reset(std::size_t ranks);

  /// True between reset(>0) and the next reset; all hooks no-op when
  /// inactive so standalone RankContext use stays untracked, not crashy.
  bool active() const { return ranks_ != 0; }
  std::size_t ranks() const { return ranks_; }

  /// Sender side: rank publishes its contribution to collective `op`.
  /// Ticks the rank's clock and records the publication {clock, epoch}.
  void on_publish(std::size_t rank, std::size_t op);

  /// Barrier release: the releasing thread merges every live rank's clock
  /// to the common upper bound. `dead[r] != 0` marks crashed ranks.
  /// Caller must hold the barrier mutex (all waiters parked).
  void on_barrier_release(const std::vector<char>& dead);

  /// Consumer side: `consumer` consumes the block `sender` published to
  /// collective `op`. Checks (a) publication happens-before the read and
  /// (b) publication epoch == `op`.
  void on_consume(std::size_t consumer, std::size_t sender, std::size_t op);

  /// Invariant (c): every surviving replica must report the identical
  /// exclusion set and quorum for `op`. First reporter's view is
  /// canonical; later mismatches are violations.
  void check_exclusion(std::size_t rank, std::size_t op, std::span<const char> excluded,
                       std::size_t quorum);

  /// Invariant (d): every replica must report the identical membership
  /// view epoch for `op` (SimCluster's per-release snapshot makes the true
  /// value cluster-wide identical; a divergence means a rank acted on a
  /// stale view). First reporter canonical, like check_exclusion.
  void check_view(std::size_t rank, std::size_t op, std::uint64_t view_epoch);

  /// Membership change (crash or rejoin): records the new view epoch as an
  /// epoch-transition event. Called under the barrier mutex by the thread
  /// performing the change.
  void on_membership_change(std::uint64_t view_epoch, const std::vector<char>& dead);

  /// A crashed rank was re-admitted: join its clock up to the live ranks'
  /// merged clock (the epoch-transition happens-before edge — everything
  /// the survivors did while it was dead is now in its causal past) and
  /// invalidate its stale pre-crash publications. Called under the barrier
  /// mutex while every live rank is parked in the membership handshake.
  void on_rejoin(std::size_t rank, const std::vector<char>& dead);

  /// Generic cross-rank agreement: all ranks must report the same `value`
  /// for (`domain`, `index`). cluster_train feeds per-iteration state
  /// hashes through this; `domain` must be a string literal.
  void check_agreement(const char* domain, std::size_t rank, std::uint64_t index,
                       std::uint64_t value);

  /// Trailer the rank should attach to a frame it is about to publish to
  /// collective epoch `epoch` under membership view `view_epoch` (clock
  /// snapshot taken now).
  AnalysisTrailer make_trailer(std::size_t rank, std::size_t epoch,
                               std::uint64_t view_epoch = 0) const;

  /// Re-verify a received trailer at the consumer: sender clock inside the
  /// consumer's causal past, epoch == `expected_epoch`, membership view ==
  /// `expected_view` (the consumer's own publication-time view for the
  /// same op), sender == claimed `sender` rank.
  void verify_trailer(std::size_t consumer, std::size_t sender, const AnalysisTrailer& trailer,
                      std::uint64_t expected_epoch, std::uint64_t expected_view = 0);

  /// Latest view epoch reported through on_membership_change (0 before any
  /// change). For tests; the checked value always travels as a parameter.
  std::uint64_t view_epoch() const { return view_epoch_; }

  const VectorClock& clock(std::size_t rank) const { return clocks_[rank]; }

  /// Seed a protocol mutant: `mutation` fires for `target_rank` from op
  /// `from_op` on. kNone clears. Test-only.
  void set_mutation(ProtocolMutation mutation, std::size_t target_rank, std::size_t from_op = 0);

 private:
  struct Publication {
    VectorClock clock;
    std::uint64_t epoch = 0;
    bool valid = false;
  };
  struct ExclusionRecord {
    std::vector<char> excluded;
    std::size_t quorum = 0;
    std::size_t reporter = 0;
  };

  bool mutates(ProtocolMutation kind, std::size_t rank, std::size_t op) const;

  std::size_t ranks_ = 0;
  std::vector<VectorClock> clocks_;
  // Current and previous publication per rank (previous feeds the
  // kReorderDelivery mutant's stale read).
  std::vector<Publication> published_;
  std::vector<Publication> previous_;

  util::Mutex mutex_;  // guards the agreement maps below
  std::map<std::size_t, ExclusionRecord> exclusions_ FFTGRAD_GUARDED_BY(mutex_);
  // op -> (canonical view epoch, first reporter) for check_view.
  std::map<std::size_t, std::pair<std::uint64_t, std::size_t>> views_ FFTGRAD_GUARDED_BY(mutex_);
  std::map<std::pair<std::string, std::uint64_t>, std::pair<std::uint64_t, std::size_t>>
      agreements_ FFTGRAD_GUARDED_BY(mutex_);

  // DELIBERATELY not GUARDED_BY: written under the *cluster's* barrier
  // mutex (a capability this header cannot name) and read barrier-ordered.
  std::uint64_t view_epoch_ = 0;

  std::atomic<ProtocolMutation> mutation_{ProtocolMutation::kNone};
  std::atomic<std::size_t> mutation_rank_{0};
  std::atomic<std::size_t> mutation_from_op_{0};
};

#else  // !FFTGRAD_ANALYSIS

/// Release stub: every hook is an empty inline, active() is a constant
/// false, so call sites (and the branches guarding their argument setup)
/// fold away entirely.
class CausalityTracker {
 public:
  void reset(std::size_t) {}
  constexpr bool active() const { return false; }
  constexpr std::size_t ranks() const { return 0; }
  void on_publish(std::size_t, std::size_t) {}
  void on_barrier_release(const std::vector<char>&) {}
  void on_consume(std::size_t, std::size_t, std::size_t) {}
  void check_exclusion(std::size_t, std::size_t, std::span<const char>, std::size_t) {}
  void check_view(std::size_t, std::size_t, std::uint64_t) {}
  void on_membership_change(std::uint64_t, const std::vector<char>&) {}
  void on_rejoin(std::size_t, const std::vector<char>&) {}
  void check_agreement(const char*, std::size_t, std::uint64_t, std::uint64_t) {}
  AnalysisTrailer make_trailer(std::size_t, std::size_t, std::uint64_t = 0) const { return {}; }
  void verify_trailer(std::size_t, std::size_t, const AnalysisTrailer&, std::uint64_t,
                      std::uint64_t = 0) {}
  constexpr std::uint64_t view_epoch() const { return 0; }
  void set_mutation(ProtocolMutation, std::size_t, std::size_t = 0) {}
};

#endif

}  // namespace fftgrad::analysis
