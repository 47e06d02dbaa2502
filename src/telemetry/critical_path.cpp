#include "fftgrad/telemetry/critical_path.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "fftgrad/util/table.h"

namespace fftgrad::telemetry {

using util::SimSeconds;

namespace {

/// Tolerance for "these simulated timestamps are the same instant". The
/// simulation works in seconds with microsecond-scale costs, so 1e-9 is
/// far below any modelled duration while absorbing fp addition noise.
constexpr SimSeconds kEps{1e-9};
constexpr SimSeconds kZeroS{0.0};

/// Keep in sync with the exporter's sim-process base pid in trace.cpp:
/// simulated session s exports as Chrome pid kSimPidBase + s.
constexpr int kSimPidBase = 100;

bool is_compute(CpCategory c) {
  return c == CpCategory::kBackprop || c == CpCategory::kCodec;
}

bool is_comm(CpCategory c) {
  return c == CpCategory::kCollective || c == CpCategory::kRetry;
}

/// Leaf-span name -> category; names nothing maps are untracked.
CpCategory cp_category_for_span(const std::string& name) {
  if (name == "forward" || name == "backward") return CpCategory::kBackprop;
  if (name == "compress" || name == "decompress") return CpCategory::kCodec;
  if (name == "collective") return CpCategory::kCollective;
  if (name == "retry") return CpCategory::kRetry;
  if (name == "straggle") return CpCategory::kStraggle;
  if (name == "barrier" || name == "abandoned") return CpCategory::kBarrierIdle;
  return CpCategory::kUntracked;
}

}  // namespace

const char* cp_category_name(CpCategory category) {
  switch (category) {
    case CpCategory::kBackprop: return "backprop";
    case CpCategory::kCodec: return "codec";
    case CpCategory::kCollective: return "collective";
    case CpCategory::kRetry: return "retry";
    case CpCategory::kStraggle: return "straggle";
    case CpCategory::kStragglerWait: return "straggler_wait";
    case CpCategory::kBarrierIdle: return "barrier_idle";
    case CpCategory::kUntracked: return "untracked";
    case CpCategory::kCount: break;
  }
  return "unknown";
}

std::uint32_t latest_sim_session(const std::vector<SpanRecord>& records) {
  std::uint32_t latest = 0;
  for (const SpanRecord& r : records) {
    if (r.rank >= 0 && r.sim_start_s >= 0.0) latest = std::max(latest, r.sim_session);
  }
  return latest;
}

std::vector<CpEvent> cp_events_from_records(const std::vector<SpanRecord>& records,
                                            std::uint32_t sim_session) {
  std::vector<CpEvent> events;
  for (const SpanRecord& r : records) {
    if (r.name == nullptr || r.category == nullptr) continue;
    if (r.sim_session != sim_session) continue;
    if (r.rank < 0 || r.sim_start_s < 0.0 || r.sim_end_s < r.sim_start_s) continue;
    const bool edge = std::string_view(r.category) == "cp-edge";
    if (!edge && std::string_view(r.category) != "cp") continue;
    CpEvent e;
    e.rank = r.rank;
    e.name = r.name;
    e.start_s = SimSeconds(r.sim_start_s);
    e.end_s = SimSeconds(r.sim_end_s);
    e.iteration = r.iteration;
    e.op = r.op;
    e.peer = r.peer;
    e.edge = edge;
    events.push_back(std::move(e));
  }
  return events;
}

std::vector<CpEvent> cp_events_from_chrome_json(const std::string& path, std::int64_t session) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const JsonValue doc = parse_json(text);
  const JsonValue* events_json = doc.find("traceEvents");
  if (events_json == nullptr || events_json->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error("'" + path + "' has no traceEvents array");
  }

  // Pick the session: either the requested one, or the newest simulated
  // process present among cp events.
  int want_pid = session >= 0 ? kSimPidBase + static_cast<int>(session) : -1;
  if (want_pid < 0) {
    for (const JsonValue& ev : events_json->array) {
      const std::string cat = ev.string_or("cat", "");
      if (cat != "cp" && cat != "cp-edge") continue;
      const int pid = static_cast<int>(ev.number_or("pid", -1.0));
      if (pid >= kSimPidBase) want_pid = std::max(want_pid, pid);
    }
  }

  std::vector<CpEvent> events;
  for (const JsonValue& ev : events_json->array) {
    if (ev.string_or("ph", "") != "X") continue;
    const std::string cat = ev.string_or("cat", "");
    const bool edge = cat == "cp-edge";
    if (!edge && cat != "cp") continue;
    if (static_cast<int>(ev.number_or("pid", -1.0)) != want_pid) continue;
    CpEvent e;
    e.rank = static_cast<std::int32_t>(ev.number_or("tid", -1.0));
    e.name = ev.string_or("name", "");
    e.start_s = SimSeconds(ev.number_or("ts", 0.0) * 1e-6);
    e.end_s = e.start_s + SimSeconds(ev.number_or("dur", 0.0) * 1e-6);
    e.edge = edge;
    if (const JsonValue* args = ev.find("args"); args != nullptr) {
      e.iteration = static_cast<std::int64_t>(args->number_or("iteration", -1.0));
      e.op = static_cast<std::int64_t>(args->number_or("op", -1.0));
      e.peer = static_cast<std::int32_t>(args->number_or("peer", -1.0));
    }
    events.push_back(std::move(e));
  }
  return events;
}

SimSeconds CpIteration::category_sum_s() const {
  SimSeconds sum{};
  for (SimSeconds v : category_s) sum += v;
  return sum;
}

SimSeconds CpIteration::compute_s() const {
  SimSeconds sum{};
  for (std::size_t i = 0; i < kCpCategoryCount; ++i) {
    if (is_compute(static_cast<CpCategory>(i))) sum += category_s[i];
  }
  return sum;
}

SimSeconds CpIteration::comm_s() const {
  SimSeconds sum{};
  for (std::size_t i = 0; i < kCpCategoryCount; ++i) {
    if (is_comm(static_cast<CpCategory>(i))) sum += category_s[i];
  }
  return sum;
}

double CpIteration::comm_share() const {
  const SimSeconds e2e = e2e_s();
  return e2e > kZeroS ? comm_s() / e2e : 0.0;
}

SimSeconds CpAnalysis::compute_s() const {
  SimSeconds sum{};
  for (std::size_t i = 0; i < kCpCategoryCount; ++i) {
    if (is_compute(static_cast<CpCategory>(i))) sum += total_s[i];
  }
  return sum;
}

SimSeconds CpAnalysis::comm_s() const {
  SimSeconds sum{};
  for (std::size_t i = 0; i < kCpCategoryCount; ++i) {
    if (is_comm(static_cast<CpCategory>(i))) sum += total_s[i];
  }
  return sum;
}

double CpAnalysis::comm_share() const {
  SimSeconds e2e{};
  for (const CpIteration& it : iterations) e2e += it.e2e_s();
  SimSeconds comm{};
  for (const CpIteration& it : iterations) comm += it.comm_s();
  return e2e > kZeroS ? comm / e2e : 0.0;
}

namespace {

struct BarrierRound {
  SimSeconds release_s{-1.0};         ///< common aligned clock after the round
  SimSeconds max_live_entry_s{-1.0};  ///< latest live arrival
  std::int32_t bounding_rank = -1;
  bool has_abandoned = false;
  std::int32_t abandoned_rank = -1;
  SimSeconds abandoned_entry_s{-1.0};  ///< the straggler's pre-snap clock
  std::int64_t iteration = -1;
};

/// Overlap bounds from one iteration's path segments. Compute and comm
/// segment lists are taken in path (time) order; comm chunk j may start
/// once compute segment j (1-based) is done — the FIFO two-machine flow
/// shop a layer-wise DGC-style schedule would realize.
void compute_bounds(CpIteration& iteration) {
  std::vector<SimSeconds> compute;
  std::vector<SimSeconds> comm;
  for (const CpSegment& seg : iteration.path) {
    const SimSeconds d = seg.end_s - seg.start_s;
    if (d <= kZeroS) continue;
    if (is_compute(seg.category)) compute.push_back(d);
    else if (is_comm(seg.category)) comm.push_back(d);
  }
  const SimSeconds compute_total = iteration.compute_s();
  const SimSeconds comm_total = iteration.comm_s();
  const SimSeconds other = iteration.e2e_s() - compute_total - comm_total;
  iteration.overlap_bound_s = std::min(compute_total, comm_total);

  std::vector<SimSeconds> prefix(compute.size() + 1, kZeroS);
  for (std::size_t i = 0; i < compute.size(); ++i) prefix[i + 1] = prefix[i] + compute[i];
  SimSeconds b{};
  for (std::size_t j = 0; j < comm.size(); ++j) {
    const SimSeconds dep = prefix[std::min(j + 1, compute.size())];
    b = std::max(b, dep) + comm[j];
  }
  const SimSeconds makespan = std::max(compute_total, b);
  SimSeconds bound = iteration.e2e_s() - other - makespan;
  bound = std::max(kZeroS, std::min(bound, iteration.overlap_bound_s));
  iteration.pipeline_bound_s = bound;
}

}  // namespace

CpAnalysis analyze_critical_path(const std::vector<CpEvent>& events) {
  CpAnalysis analysis;

  // Per-rank timelines of leaf spans, sorted by (end, start): walking from
  // the back of the vector visits spans latest-release first.
  std::map<std::int32_t, std::vector<const CpEvent*>> timelines;
  std::map<std::int64_t, BarrierRound> barriers;
  std::int32_t max_rank = -1;
  for (const CpEvent& e : events) {
    if (e.edge) continue;
    max_rank = std::max(max_rank, e.rank);
    if (e.name == "abandoned") {
      // Snapback record of a timed-out straggler: [release, pre-snap
      // entry]. Not part of the rank's forward timeline.
      if (e.op >= 0) {
        BarrierRound& round = barriers[e.op];
        if (!round.has_abandoned || e.end_s > round.abandoned_entry_s ||
            (e.end_s == round.abandoned_entry_s && e.rank < round.abandoned_rank)) {
          round.has_abandoned = true;
          round.abandoned_rank = e.rank;
          round.abandoned_entry_s = e.end_s;
        }
      }
      continue;
    }
    timelines[e.rank].push_back(&e);
    if (e.name == "barrier" && e.op >= 0) {
      BarrierRound& round = barriers[e.op];
      round.release_s = std::max(round.release_s, e.end_s);
      // Exact ties (symmetric lossless ranks) break to the lowest rank:
      // event order in the snapshot follows thread registration, which is
      // schedule-dependent, and the analysis must not be.
      if (e.start_s > round.max_live_entry_s ||
          (e.start_s == round.max_live_entry_s &&
           (round.bounding_rank < 0 || e.rank < round.bounding_rank))) {
        round.max_live_entry_s = e.start_s;
        round.bounding_rank = e.rank;
      }
      if (e.iteration >= 0) round.iteration = e.iteration;
    }
  }
  if (timelines.empty()) return analysis;
  for (auto& [rank, spans] : timelines) {
    std::stable_sort(spans.begin(), spans.end(), [](const CpEvent* a, const CpEvent* b) {
      if (a->end_s != b->end_s) return a->end_s < b->end_s;
      if (a->start_s != b->start_s) return a->start_s < b->start_s;
      // Full tie (e.g. coincident zero-length spans): order by (op, name)
      // so the walk never depends on snapshot order, which follows
      // schedule-dependent thread registration.
      if (a->op != b->op) return a->op < b->op;
      return a->name < b->name;
    });
  }

  // End of the analyzed window: the latest span release; ties (the final
  // barrier aligns every clock) break to the lowest rank for determinism.
  SimSeconds end_s{};
  std::int32_t cur_rank = -1;
  for (const auto& [rank, spans] : timelines) {
    const SimSeconds rank_end = spans.back()->end_s;
    if (rank_end > end_s + kEps) {
      end_s = rank_end;
      cur_rank = rank;
    } else if (cur_rank < 0) {
      end_s = std::max(end_s, rank_end);
      cur_rank = rank;
    }
  }
  analysis.end_s = end_s;

  // Backward walk. `index[rank]` counts the rank's unconsumed span prefix.
  std::map<std::int32_t, std::size_t> index;
  for (const auto& [rank, spans] : timelines) index[rank] = spans.size();

  std::vector<CpSegment> reversed;  // built latest-first
  const auto emit = [&](CpCategory category, std::int32_t rank, SimSeconds start,
                        SimSeconds end, const char* name, std::int64_t iteration,
                        std::int64_t op, std::int32_t peer) {
    if (end - start <= kZeroS) return;
    CpSegment seg;
    seg.category = category;
    seg.rank = rank;
    seg.start_s = start;
    seg.end_s = end;
    seg.name = name;
    seg.iteration = iteration;
    seg.op = op;
    seg.peer = peer;
    reversed.push_back(std::move(seg));
  };

  SimSeconds cursor = end_s;
  std::size_t guard = 0;
  const std::size_t guard_limit = events.size() * 4 + 64;
  while (cursor > kEps) {
    if (++guard > guard_limit) {
      analysis.problems.push_back("critical-path walk did not converge (trace malformed?)");
      break;
    }
    auto tl_it = timelines.find(cur_rank);
    if (tl_it == timelines.end()) {
      analysis.problems.push_back("no spans recorded for rank " + std::to_string(cur_rank));
      emit(CpCategory::kUntracked, cur_rank, kZeroS, cursor, "gap", -1, -1, -1);
      break;
    }
    const std::vector<const CpEvent*>& spans = tl_it->second;
    std::size_t& idx = index[cur_rank];
    while (idx > 0 && spans[idx - 1]->end_s > cursor + kEps) --idx;
    if (idx == 0) {
      // Nothing recorded before the cursor on this rank: the remaining
      // window is untracked (e.g. the run's setup prefix).
      emit(CpCategory::kUntracked, cur_rank, kZeroS, cursor, "gap", -1, -1, -1);
      cursor = kZeroS;
      break;
    }
    const CpEvent& span = *spans[idx - 1];
    if (span.end_s < cursor - kEps) {
      // Gap between recorded spans: attribute it to this rank, untracked.
      emit(CpCategory::kUntracked, cur_rank, span.end_s, cursor, "gap", span.iteration, -1,
           -1);
      cursor = span.end_s;
      continue;
    }

    if (span.name == "barrier" && span.op >= 0) {
      --idx;
      const BarrierRound& round = barriers[span.op];
      if (round.bounding_rank < 0) {
        analysis.problems.push_back("barrier generation " + std::to_string(span.op) +
                                    " has no live arrivals");
        continue;
      }
      if (round.has_abandoned && round.max_live_entry_s < round.release_s - kEps) {
        // Timeout-capped release: between the last live arrival and the
        // release the cluster was waiting out the straggler deadline —
        // charge that wait to the abandoned rank.
        emit(CpCategory::kStragglerWait, round.abandoned_rank, round.max_live_entry_s,
             round.release_s, "straggler_wait", span.iteration, span.op,
             round.abandoned_rank);
      } else if (round.max_live_entry_s < round.release_s - kEps) {
        // Release later than every arrival without a straggler record:
        // structurally odd (e.g. a crash-released round) — keep the
        // timeline contiguous and flag it.
        analysis.problems.push_back("barrier generation " + std::to_string(span.op) +
                                    " released after its last arrival");
        emit(CpCategory::kBarrierIdle, cur_rank, round.max_live_entry_s, round.release_s,
             "barrier", span.iteration, span.op, -1);
      }
      cursor = std::min(cursor, round.max_live_entry_s);
      cur_rank = round.bounding_rank;
      continue;
    }

    --idx;
    const CpCategory category = cp_category_for_span(span.name);
    if (category == CpCategory::kUntracked && span.end_s - span.start_s > kEps) {
      analysis.problems.push_back("unknown cp span '" + span.name + "' on rank " +
                                  std::to_string(span.rank));
    }
    emit(category, cur_rank, std::min(span.start_s, cursor), cursor, span.name.c_str(),
         span.iteration, span.op, span.peer);
    cursor = std::min(span.start_s, cursor);
  }

  // Forward order; untagged segments (barrier waits between phases, gaps)
  // inherit the iteration of the segment that follows them in time.
  std::int64_t current_iteration = -1;
  for (CpSegment& seg : reversed) {
    if (seg.iteration >= 0) current_iteration = seg.iteration;
    else seg.iteration = current_iteration;
  }
  std::reverse(reversed.begin(), reversed.end());

  // Group contiguous runs of equal iteration into CpIteration windows.
  for (CpSegment& seg : reversed) {
    if (analysis.iterations.empty() || analysis.iterations.back().iteration != seg.iteration) {
      CpIteration it;
      it.iteration = seg.iteration;
      it.start_s = seg.start_s;
      it.end_s = seg.end_s;
      analysis.iterations.push_back(std::move(it));
    }
    CpIteration& it = analysis.iterations.back();
    it.end_s = seg.end_s;
    it.category_s[static_cast<std::size_t>(seg.category)] += seg.end_s - seg.start_s;
    it.path.push_back(seg);
  }
  for (CpIteration& it : analysis.iterations) {
    compute_bounds(it);
    for (std::size_t c = 0; c < kCpCategoryCount; ++c) analysis.total_s[c] += it.category_s[c];
    analysis.overlap_bound_s += it.overlap_bound_s;
    analysis.pipeline_bound_s += it.pipeline_bound_s;
  }

  // Per-rank flame summary over every recorded span (not just the path).
  std::map<std::int32_t, CpRankSummary> ranks;
  for (const CpEvent& e : events) {
    if (e.edge || e.name == "abandoned") continue;
    CpRankSummary& summary = ranks[e.rank];
    summary.rank = e.rank;
    summary.busy_s[static_cast<std::size_t>(cp_category_for_span(e.name))] +=
        e.end_s - e.start_s;
  }
  for (auto& [rank, summary] : ranks) {
    SimSeconds covered{};
    for (SimSeconds v : summary.busy_s) covered += v;
    const SimSeconds barrier_idle =
        summary.busy_s[static_cast<std::size_t>(CpCategory::kBarrierIdle)];
    summary.idle_s = barrier_idle + std::max(kZeroS, end_s - covered);
  }
  for (const CpIteration& it : analysis.iterations) {
    for (const CpSegment& seg : it.path) {
      ranks[seg.rank].rank = seg.rank;
      ranks[seg.rank].on_path_s += seg.end_s - seg.start_s;
    }
  }
  for (auto& [rank, summary] : ranks) analysis.ranks.push_back(summary);

  return analysis;
}

namespace {

std::string printed(const char* format, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

std::string percent(double share) { return printed("%.1f%%", share * 100.0); }

SimSeconds windowed_e2e_s(const CpAnalysis& analysis) {
  SimSeconds e2e{};
  for (const CpIteration& it : analysis.iterations) e2e += it.e2e_s();
  return e2e;
}

}  // namespace

std::string render_critpath_report(const CpAnalysis& analysis) {
  const SimSeconds e2e = windowed_e2e_s(analysis);
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "end-to-end %.6f s over %zu window(s); compute %.6f s, comm %.6f s "
                "(comm share %.1f%%)\n",
                e2e.to_double(), analysis.iterations.size(), analysis.compute_s().to_double(),
                analysis.comm_s().to_double(), analysis.comm_share() * 100.0);
  out += line;
  std::snprintf(line, sizeof(line),
                "overlap upper bound %.6f s (perfect chunking); pipeline bound %.6f s "
                "(layer-wise FIFO, one stage per compute span on the path)\n",
                analysis.overlap_bound_s.to_double(), analysis.pipeline_bound_s.to_double());
  out += line;

  util::TableWriter totals({"category", "seconds", "share"});
  totals.set_double_format("%.6f");
  for (std::size_t c = 0; c < kCpCategoryCount; ++c) {
    if (analysis.total_s[c] <= kZeroS) continue;
    totals.add_row({cp_category_name(static_cast<CpCategory>(c)),
                    analysis.total_s[c].to_double(),
                    percent(e2e > kZeroS ? analysis.total_s[c] / e2e : 0.0)});
  }
  out += "\ntotals\n" + totals.to_string();

  util::TableWriter iterations({"iter", "e2e_s", "compute_s", "comm_s", "comm_share",
                                "overlap_bound_s", "pipeline_bound_s"});
  iterations.set_double_format("%.6f");
  for (const CpIteration& it : analysis.iterations) {
    iterations.add_row({static_cast<long long>(it.iteration), it.e2e_s().to_double(),
                        it.compute_s().to_double(), it.comm_s().to_double(),
                        percent(it.comm_share()), it.overlap_bound_s.to_double(),
                        it.pipeline_bound_s.to_double()});
  }
  out += "\niterations\n" + iterations.to_string();

  util::TableWriter ranks({"rank", "on_path_s", "busy_s", "idle_s"});
  ranks.set_double_format("%.6f");
  for (const CpRankSummary& r : analysis.ranks) {
    SimSeconds busy{};
    for (std::size_t c = 0; c < kCpCategoryCount; ++c) {
      if (static_cast<CpCategory>(c) != CpCategory::kBarrierIdle) busy += r.busy_s[c];
    }
    ranks.add_row({static_cast<long long>(r.rank), r.on_path_s.to_double(), busy.to_double(),
                   r.idle_s.to_double()});
  }
  out += "\nranks\n" + ranks.to_string();

  if (!analysis.problems.empty()) {
    out += "\nproblems\n";
    for (const std::string& p : analysis.problems) out += "  ! " + p + "\n";
  }
  return out;
}

std::string render_critpath_diff(const CpAnalysis& before, const CpAnalysis& after) {
  util::TableWriter table({"category", "before_s", "after_s", "delta_s"});
  table.set_double_format("%.6f");
  for (std::size_t c = 0; c < kCpCategoryCount; ++c) {
    const double b = before.total_s[c].to_double();
    const double a = after.total_s[c].to_double();
    if (b <= 0.0 && a <= 0.0) continue;
    table.add_row({cp_category_name(static_cast<CpCategory>(c)), b, a, printed("%+.6f", a - b)});
  }
  char line[192];
  std::snprintf(line, sizeof(line),
                "end-to-end %+.6f s; overlap bound %+.6f s; pipeline bound %+.6f s\n",
                (windowed_e2e_s(after) - windowed_e2e_s(before)).to_double(),
                (after.overlap_bound_s - before.overlap_bound_s).to_double(),
                (after.pipeline_bound_s - before.pipeline_bound_s).to_double());
  return table.to_string() + line;
}

std::string serialize_critpath(const CpAnalysis& analysis) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "end=%.9f overlap=%.9f pipeline=%.9f\n",
                analysis.end_s.to_double(), analysis.overlap_bound_s.to_double(),
                analysis.pipeline_bound_s.to_double());
  out += line;
  for (const CpIteration& it : analysis.iterations) {
    std::snprintf(line, sizeof(line), "iter %lld [%.9f,%.9f] ob=%.9f pb=%.9f\n",
                  static_cast<long long>(it.iteration), it.start_s.to_double(),
                  it.end_s.to_double(), it.overlap_bound_s.to_double(),
                  it.pipeline_bound_s.to_double());
    out += line;
    for (const CpSegment& seg : it.path) {
      std::snprintf(line, sizeof(line), "  seg %s rank=%d [%.9f,%.9f] op=%lld peer=%d %s\n",
                    cp_category_name(seg.category), seg.rank, seg.start_s.to_double(),
                    seg.end_s.to_double(), static_cast<long long>(seg.op), seg.peer,
                    seg.name.c_str());
      out += line;
    }
  }
  for (const CpRankSummary& r : analysis.ranks) {
    std::snprintf(line, sizeof(line), "rank %d on_path=%.9f idle=%.9f\n", r.rank,
                  r.on_path_s.to_double(), r.idle_s.to_double());
    out += line;
  }
  return out;
}

CpLedgerReconcile reconcile_with_ledger(const CpAnalysis& analysis, const LedgerRun& run) {
  CpLedgerReconcile result;
  // Iterations the analyzer actually windowed (setup/teardown excluded).
  std::map<std::int64_t, SimSeconds> path_comm;
  for (const CpIteration& it : analysis.iterations) {
    if (it.iteration >= 0) path_comm[it.iteration] += it.comm_s();
  }
  for (const JsonValue& row : run.iterations) {
    const std::int64_t iteration =
        static_cast<std::int64_t>(row.number_or("iter", row.number_or("iteration", -1.0)));
    const auto it = path_comm.find(iteration);
    if (it == path_comm.end()) continue;
    const JsonValue* collectives = row.find("collectives");
    if (collectives == nullptr || collectives->kind != JsonValue::Kind::kArray) continue;
    for (const JsonValue& c : collectives->array) {
      result.ledger_charged_s += SimSeconds(c.number_or("charged_s", 0.0));
      result.compared = true;
    }
    result.path_comm_s += it->second;
  }
  result.abs_diff_s =
      SimSeconds(std::fabs((result.ledger_charged_s - result.path_comm_s).to_double()));
  const double denom = std::max(
      {result.ledger_charged_s.to_double(), result.path_comm_s.to_double(), 1e-12});
  result.rel_diff = result.abs_diff_s.to_double() / denom;
  return result;
}

}  // namespace fftgrad::telemetry
