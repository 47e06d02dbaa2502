#include "fftgrad/comm/network_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fftgrad::comm {

SimSeconds RetryPolicy::backoff_s(std::size_t retry) const {
  return backoff_base_s * std::pow(backoff_factor, static_cast<double>(retry));
}

double NetworkModel::expected_sends() const {
  if (loss_rate <= 0.0) return 1.0;
  const double p = std::min(loss_rate, 1.0);
  // E[sends] = sum_{k=0}^{max_retries} P(send k+1 happens) = sum p^k.
  double sends = 0.0;
  double pk = 1.0;
  for (std::size_t k = 0; k <= retry.max_retries; ++k) {
    sends += pk;
    pk *= p;
  }
  return sends;
}

SimSeconds NetworkModel::expected_backoff_s() const {
  if (loss_rate <= 0.0) return SimSeconds(0.0);
  const double p = std::min(loss_rate, 1.0);
  // Retransmission i (1-based) happens with probability p^i and waits
  // backoff_s(i-1) first.
  SimSeconds total{0.0};
  double pi = p;
  for (std::size_t i = 1; i <= retry.max_retries; ++i) {
    total += pi * retry.backoff_s(i - 1);
    pi *= p;
  }
  return total;
}

SimSeconds NetworkModel::allgather_time(Bytes block, std::size_t ranks) const {
  if (ranks <= 1) return SimSeconds(0.0);
  const double steps = static_cast<double>(ranks - 1);
  return steps * p2p_time(block);
}

SimSeconds NetworkModel::allgatherv_time(std::span<const Bytes> blocks) const {
  const std::size_t ranks = blocks.size();
  if (ranks <= 1) return SimSeconds(0.0);
  // In a ring allgather, at step s every rank forwards the block that
  // originated s hops upstream; the step completes when the largest block
  // of that step has been forwarded. Over p-1 steps every block is in
  // flight exactly once at every step boundary, so each step is bounded by
  // the global maximum block. (Exact per-step tracking would rotate the
  // origin; the max bound is what limits the schedule in the worst rank.)
  const Bytes max_block = *std::max_element(blocks.begin(), blocks.end());
  return static_cast<double>(ranks - 1) * p2p_time(max_block);
}

SimSeconds NetworkModel::allreduce_time(Bytes total, std::size_t ranks) const {
  if (ranks <= 1) return SimSeconds(0.0);
  const double steps = 2.0 * static_cast<double>(ranks - 1);
  const Bytes chunk = total / static_cast<double>(ranks);
  return steps * p2p_time(chunk);
}

SimSeconds NetworkModel::broadcast_time(Bytes size, std::size_t ranks) const {
  if (ranks <= 1) return SimSeconds(0.0);
  const double rounds = std::ceil(std::log2(static_cast<double>(ranks)));
  return rounds * p2p_time(size);
}

SimSeconds NetworkModel::ps_push_time(std::span<const Bytes> blocks) const {
  SimSeconds total{0.0};
  for (Bytes block : blocks) total += p2p_time(block);
  return total;
}

SimSeconds NetworkModel::ps_pull_time(Bytes params, std::size_t workers) const {
  return static_cast<double>(workers) * p2p_time(params);
}

namespace {

// The factories override only the link parameters; loss/retry keep their
// defaults (lossless), spelled via member assignment so -Wextra's
// missing-field-initializers check stays quiet about the aggregate.
NetworkModel make_model(const char* name, SimSeconds latency, BytesPerSecond bandwidth) {
  NetworkModel model;
  model.name = name;
  model.latency_s = latency;
  model.bandwidth_bytes_s = bandwidth;
  return model;
}

}  // namespace

NetworkModel NetworkModel::ethernet_1g() {
  return make_model("ethernet-1G", SimSeconds(50e-6), BytesPerSecond(1e9 / 8.0));
}

NetworkModel NetworkModel::ethernet_10g() {
  return make_model("ethernet-10G", SimSeconds(20e-6), BytesPerSecond(10e9 / 8.0));
}

NetworkModel NetworkModel::infiniband_fdr56() {
  return make_model("infiniband-FDR56", SimSeconds(1e-6), BytesPerSecond(56e9 / 8.0));
}

}  // namespace fftgrad::comm
