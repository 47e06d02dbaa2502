#include "fftgrad/analysis/critpath_check.h"

#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "fftgrad/analysis/check.h"

namespace fftgrad::analysis {

using util::SimSeconds;

namespace {

constexpr SimSeconds kSumTolerance{1e-6};  ///< acceptance bound on |sum - e2e|
constexpr SimSeconds kTimeEps{1e-9};       ///< timestamp comparison slack

SimSeconds abs_diff(SimSeconds a, SimSeconds b) {
  return SimSeconds(std::fabs((a - b).to_double()));
}

}  // namespace

std::vector<std::string> validate_critical_path(const telemetry::CpAnalysis& analysis,
                                                const std::vector<telemetry::CpEvent>& events) {
  std::vector<std::string> problems;
  const auto complain = [&problems](const std::string& what) {
    problems.push_back(what);
    report_violation("critpath", what);
  };

  // (0): what the analyzer itself found while walking.
  for (const std::string& problem : analysis.problems) complain(problem);

  // (1) + (2): contiguous tiling within windows, back-to-back windows.
  SimSeconds previous_end{-1.0};
  for (const telemetry::CpIteration& iteration : analysis.iterations) {
    std::ostringstream tag;
    tag << "iteration " << iteration.iteration;
    if (previous_end >= SimSeconds(0.0) &&
        abs_diff(iteration.start_s, previous_end) > kTimeEps) {
      std::ostringstream out;
      out << tag.str() << ": window starts at " << iteration.start_s.to_double()
          << " but the previous window ended at " << previous_end.to_double();
      complain(out.str());
    }
    previous_end = iteration.end_s;

    SimSeconds cursor = iteration.start_s;
    for (const telemetry::CpSegment& segment : iteration.path) {
      if (abs_diff(segment.start_s, cursor) > kTimeEps) {
        std::ostringstream out;
        out << tag.str() << ": segment '" << segment.name << "' starts at "
            << segment.start_s.to_double() << " but the path cursor is at "
            << cursor.to_double()
            << (segment.start_s > cursor ? " (gap)" : " (overlap)");
        complain(out.str());
      }
      cursor = segment.end_s;
    }
    if (abs_diff(cursor, iteration.end_s) > kTimeEps) {
      std::ostringstream out;
      out << tag.str() << ": path ends at " << cursor.to_double() << ", window ends at "
          << iteration.end_s.to_double();
      complain(out.str());
    }

    const SimSeconds sum = iteration.category_sum_s();
    if (abs_diff(sum, iteration.e2e_s()) > kSumTolerance) {
      std::ostringstream out;
      out << tag.str() << ": category times sum to " << sum.to_double()
          << " but end-to-end is " << iteration.e2e_s().to_double() << " (|diff| "
          << abs_diff(sum, iteration.e2e_s()).to_double() << " > "
          << kSumTolerance.to_double() << ")";
      complain(out.str());
    }
  }

  // (3): happens-before support for every consume edge. Ops whose barrier
  // snapped a straggler back ("abandoned") legitimately show a publish
  // later than its consumers — the work was abandoned — so only the
  // edge-existence half applies there.
  std::map<std::pair<std::int32_t, std::int64_t>, SimSeconds> publishes;  // (rank, op) -> time
  std::set<std::int64_t> snapped_ops;
  for (const telemetry::CpEvent& event : events) {
    if (event.edge && event.name == "publish" && event.op >= 0) {
      publishes[{event.rank, event.op}] = event.start_s;
    }
    if (!event.edge && event.name == "abandoned" && event.op >= 0) {
      // The abandoned record carries the barrier generation; a straggler
      // excluded at generation g published at the collective op just
      // before it. Conservatively exempt every op the straggler touched.
      snapped_ops.insert(event.op);
    }
  }
  const bool any_snapback = !snapped_ops.empty();
  for (const telemetry::CpEvent& event : events) {
    if (!event.edge || event.name != "consume" || event.op < 0) continue;
    const auto it = publishes.find({event.peer, event.op});
    if (it == publishes.end()) {
      std::ostringstream out;
      out << "consume on rank " << event.rank << " of op " << event.op << " from rank "
          << event.peer << " has no matching publish";
      complain(out.str());
      continue;
    }
    // Barrier generations and collective ops use different counters, so a
    // snapback anywhere in the trace relaxes the timestamp half globally —
    // the existence half (above) still applies everywhere.
    if (!any_snapback && it->second > event.start_s + kTimeEps) {
      std::ostringstream out;
      out << "consume on rank " << event.rank << " of op " << event.op << " from rank "
          << event.peer << " at sim time " << event.start_s.to_double()
          << " precedes the sender's publish at " << it->second.to_double();
      complain(out.str());
    }
  }

  return problems;
}

}  // namespace fftgrad::analysis
