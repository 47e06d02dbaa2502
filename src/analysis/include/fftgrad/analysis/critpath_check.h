// Structural validation of a critical-path analysis against the raw cp
// events it was built from — the analysis layer's cross-check that the
// analyzer's output is internally consistent and that the happens-before
// evidence the causality layer mirrored into the trace actually supports
// the walk:
//
//   (0) the analyzer's own problems (CpAnalysis::problems): a leaf span
//       whose name maps to no category, a rank without spans, a barrier
//       generation without live arrivals or released after its last one;
//   (1) contiguity: within every iteration window the path segments tile
//       [start, end] with no gaps or overlaps, so the per-category times
//       sum to the end-to-end time (within 1e-6 s; timestamps compare
//       with 1e-9 s of slack);
//   (2) monotonicity: iteration windows are back-to-back and in order;
//   (3) happens-before: every "consume" cp-edge has a matching "publish"
//       from its sender for the same op, and — unless the op's barrier was
//       snapped back by a straggler timeout ("abandoned" record) — the
//       publish's simulated time does not exceed the consume's.
//
// Returns human-readable problems (empty = valid). In FFTGRAD_ANALYSIS
// builds each problem is also routed through report_violation("critpath",
// ...), aborting under the default violation handler.
#pragma once

#include <string>
#include <vector>

#include "fftgrad/telemetry/critical_path.h"

namespace fftgrad::analysis {

std::vector<std::string> validate_critical_path(const telemetry::CpAnalysis& analysis,
                                                const std::vector<telemetry::CpEvent>& events);

}  // namespace fftgrad::analysis
