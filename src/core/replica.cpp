#include "fftgrad/core/replica.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "fftgrad/core/error_feedback.h"
#include "fftgrad/util/stats.h"

namespace fftgrad::core {
namespace {

void put_floats(std::vector<std::uint8_t>& bytes, std::span<const float> values) {
  wire::put<std::uint64_t>(bytes, values.size());
  wire::put_span<float>(bytes, values);
}

std::vector<float> get_floats(wire::Reader& reader) {
  std::vector<float> values(reader.get_count(sizeof(float)));
  reader.get_span<float>(values);
  return values;
}

void put_lists(std::vector<std::uint8_t>& bytes, const std::vector<std::vector<float>>& lists) {
  wire::put<std::uint64_t>(bytes, lists.size());
  for (const std::vector<float>& list : lists) put_floats(bytes, list);
}

std::vector<std::vector<float>> get_lists(wire::Reader& reader) {
  std::vector<std::vector<float>> lists(reader.get_count(sizeof(std::uint64_t)));
  for (std::vector<float>& list : lists) list = get_floats(reader);
  return lists;
}

ErrorFeedbackCompressor* error_feedback(const std::unique_ptr<GradientCompressor>& codec) {
  return dynamic_cast<ErrorFeedbackCompressor*>(codec.get());
}

}  // namespace

double residual_norm(const std::unique_ptr<GradientCompressor>& codec) {
  const ErrorFeedbackCompressor* ef = error_feedback(codec);
  return ef != nullptr ? util::l2_norm(ef->residual()) : -1.0;
}

std::size_t Replica::average(GradientCompressor& codec,
                             std::span<const std::optional<wire::WireFrame>> frames,
                             telemetry::LedgerIteration* round_trip, std::size_t own,
                             std::span<const nn::ParamSegment> layout) {
  std::fill(averaged_.begin(), averaged_.end(), 0.0f);
  times_.decompress = util::WallSeconds{};
  const auto present = [](const std::optional<wire::WireFrame>& f) { return f.has_value(); };
  const auto n = static_cast<std::size_t>(std::count_if(frames.begin(), frames.end(), present));
  if (n == 0) return 0;
  const float inv_n = 1.0f / static_cast<float>(n);
  telemetry::TraceSpan span("decompress", "trainer");
  util::WallTimer timer;
  std::size_t rejected = 0;
  for (std::size_t r = 0; r < frames.size(); ++r) {
    if (!frames[r]) continue;
    try {
      codec.decompress(frames[r]->packet, reconstructed_);
    } catch (const std::exception&) {
      ++rejected;
      continue;
    }
    if (round_trip != nullptr && r == own) {
      record_round_trip(*round_trip, gradient_, reconstructed_, layout);
    }
    for (std::size_t i = 0; i < averaged_.size(); ++i) averaged_[i] += reconstructed_[i] * inv_n;
  }
  times_.decompress = timer.elapsed();
  return rejected;
}

void ReplicaState::capture(std::uint64_t next_iteration, Replica& replica, RankCodecs codecs) {
  iteration = next_iteration;
  params.resize(replica.size());
  replica.model().copy_params(params);
  velocity = replica.optimizer().velocity();
  residuals.resize(codecs.size());
  for (std::size_t r = 0; r < codecs.size(); ++r) {
    const ErrorFeedbackCompressor* ef = error_feedback(codecs[r]);
    const std::span<const float> residual = ef ? ef->residual() : std::span<const float>();
    residuals[r].assign(residual.begin(), residual.end());
  }
}

bool ReplicaState::fits(Replica& replica, RankCodecs codecs) const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("replica state: ") + what + " mismatch");
  };
  require(params.size() == replica.size(), "parameter count");
  if (!velocity.empty()) {
    const std::vector<nn::Param> tensors = replica.model().params();
    require(velocity.size() == tensors.size(), "momentum tensor count");
    for (std::size_t p = 0; p < tensors.size(); ++p) {
      require(velocity[p].size() == tensors[p].value->size(), "momentum tensor length");
    }
  }
  require(residuals.empty() || residuals.size() == codecs.size(), "residual count");
  for (std::size_t r = 0; r < residuals.size(); ++r) {
    if (residuals[r].empty()) continue;
    require(residuals[r].size() == replica.size(), "residual length");
    require(error_feedback(codecs[r]) != nullptr, "residual without error-feedback codec");
  }
  return true;
}

void ReplicaState::install(Replica& replica, RankCodecs codecs) const {
  replica.model().set_params(params);
  replica.optimizer().set_velocity(velocity);
  for (std::size_t r = 0; r < residuals.size(); ++r) {
    ErrorFeedbackCompressor* ef = error_feedback(codecs[r]);
    if (ef != nullptr && !residuals[r].empty()) ef->set_residual(residuals[r]);
  }
}

void ReplicaState::write(std::vector<std::uint8_t>& bytes) const {
  wire::put<std::uint64_t>(bytes, iteration);
  put_floats(bytes, params);
  put_lists(bytes, velocity);
  put_lists(bytes, residuals);
}

ReplicaState ReplicaState::read(wire::Reader& reader) {
  // Braced initializers run in order, so the fields read in write() order.
  return {reader.get<std::uint64_t>(), get_floats(reader), get_lists(reader), get_lists(reader)};
}

void RejoinBlob::write(std::vector<std::uint8_t>& bytes) const {
  state.write(bytes);
  wire::put<double>(bytes, theta);
  wire::put<std::uint8_t>(bytes, fallback_active ? 1 : 0);
  wire::put<std::uint64_t>(bytes, controller_state.size());
  wire::put_span<std::uint8_t>(bytes, controller_state);
  wire::put<std::uint8_t>(bytes, snapshot ? 1 : 0);
  if (snapshot) snapshot->write(bytes);
}

RejoinBlob RejoinBlob::read(wire::Reader& reader) {
  RejoinBlob blob;
  blob.state = ReplicaState::read(reader);
  blob.theta = reader.get<double>();
  blob.fallback_active = reader.get<std::uint8_t>() != 0;
  blob.controller_state.resize(reader.get_count(1));
  reader.get_span<std::uint8_t>(blob.controller_state);
  if (reader.get<std::uint8_t>() != 0) blob.snapshot = ReplicaState::read(reader);
  return blob;
}

void record_round_trip(telemetry::LedgerIteration& row, std::span<const float> truth,
                       std::span<const float> recon, std::span<const nn::ParamSegment> layout) {
  const auto max_error = [](std::span<const float> a, std::span<const float> b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      worst = std::max(worst, static_cast<double>(std::fabs(a[i] - b[i])));
    }
    return worst;
  };
  row.alpha = util::relative_error_alpha(truth, recon);
  row.rms_error = util::rms_error(truth, recon);
  row.max_error = max_error(truth, recon);
  row.layers.reserve(layout.size());
  for (const nn::ParamSegment& seg : layout) {
    const std::span<const float> t = truth.subspan(seg.offset, seg.count);
    const std::span<const float> r = recon.subspan(seg.offset, seg.count);
    row.layers.push_back({seg.name, util::relative_error_alpha(t, r), util::rms_error(t, r),
                          max_error(t, r)});
  }
}

}  // namespace fftgrad::core
