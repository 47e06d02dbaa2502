// alpha-beta network cost model and collective-communication time formulas.
//
// This replaces the paper's physical interconnects (56Gbps FDR InfiniBand,
// 1/10Gbps Ethernet, intra-node PCIe). A message of b bytes costs
// alpha + b/beta seconds between any pair of ranks; collectives follow the
// standard ring/tree schedules implemented by Open MPI / NCCL:
//
//   ring allgather   (p-1) steps, each forwarding one rank's block:
//                    sum over steps of (alpha + block/beta)
//   ring allreduce   reduce-scatter + allgather: 2(p-1) steps of m/p bytes
//   tree broadcast   ceil(log2 p) steps of the full message
//
// These formulas reproduce the linear-in-p allgather growth of the paper's
// Fig 11 and feed the end-to-end wall-clock accounting of Figs 14/16.
//
// All parameters and results are dimensionally typed (util/units.h):
// message sizes are Bytes, latencies/backoffs/collective times SimSeconds,
// bandwidth BytesPerSecond. Handing a formula a microsecond figure or a
// bit count no longer compiles.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "fftgrad/util/units.h"

namespace fftgrad::comm {

using util::Bytes;
using util::BytesPerSecond;
using util::SimSeconds;

/// Bounded-retry retransmission policy with exponential backoff. Shared by
/// the analytic lossy-link accounting below and by the sampled per-packet
/// recovery in SimCluster's fault-injecting transport, so both charge
/// recovery through the same formula.
struct RetryPolicy {
  std::size_t max_retries = 3;        ///< retransmissions after the first send
  SimSeconds backoff_base_s{20e-6};   ///< wait before the first retransmission
  double backoff_factor = 2.0;        ///< multiplier per further retransmission

  /// Backoff paid before retransmission `retry` (0-based):
  /// backoff_base_s * backoff_factor^retry.
  SimSeconds backoff_s(std::size_t retry) const;
};

struct NetworkModel {
  std::string name = "custom";
  SimSeconds latency_s{1e-6};            ///< alpha: per-message latency
  BytesPerSecond bandwidth_bytes_s{1e9}; ///< beta: link bandwidth

  /// Per-message loss probability (drop or detected corruption). When
  /// non-zero, every p2p_time — and therefore every collective formula
  /// built on it — is inflated by the expected number of transmissions plus
  /// the expected backoff under `retry`, so benchmark wall-clock totals
  /// honestly include recovery cost. Zero keeps the lossless formulas
  /// bit-identical to the historical model.
  double loss_rate = 0.0;
  RetryPolicy retry{};

  /// Fault-free cost of one message of `size`: alpha + size/beta.
  SimSeconds p2p_base_time(Bytes size) const {
    return latency_s + size / bandwidth_bytes_s;
  }

  /// Expected transmissions per delivered message under `loss_rate`,
  /// capped at 1 + retry.max_retries (bounded geometric series).
  double expected_sends() const;

  /// Expected backoff accrued per message under `loss_rate`.
  SimSeconds expected_backoff_s() const;

  /// Point-to-point cost of one message of `size`, including expected
  /// retransmissions and backoff on a lossy link.
  SimSeconds p2p_time(Bytes size) const {
    if (loss_rate <= 0.0) return p2p_base_time(size);
    return expected_sends() * p2p_base_time(size) + expected_backoff_s();
  }

  /// Ring allgather of equal blocks: every rank contributes `block` bytes
  /// and ends with all p blocks. p == 1 costs nothing.
  SimSeconds allgather_time(Bytes block, std::size_t ranks) const;

  /// Ring allgather with per-rank block sizes (allgatherv). Each of the
  /// p-1 ring steps is gated by the largest block in flight.
  SimSeconds allgatherv_time(std::span<const Bytes> blocks) const;

  /// Ring allreduce of a `total` byte vector (reduce-scatter + allgather).
  SimSeconds allreduce_time(Bytes total, std::size_t ranks) const;

  /// Binomial-tree broadcast of `size` from one root.
  SimSeconds broadcast_time(Bytes size, std::size_t ranks) const;

  /// Parameter-server push: every worker's gradient block funnels through
  /// the server's single inbound link, serializing the transfers (the
  /// congestion the paper's Fig 1a discussion highlights).
  SimSeconds ps_push_time(std::span<const Bytes> blocks) const;

  /// Parameter-server pull: the server sends the updated parameters to each
  /// of `workers` over its single outbound link.
  SimSeconds ps_pull_time(Bytes params, std::size_t workers) const;

  // ---- canonical profiles (match the paper's testbeds) ----
  static NetworkModel ethernet_1g();
  static NetworkModel ethernet_10g();
  static NetworkModel infiniband_fdr56();
};

}  // namespace fftgrad::comm
