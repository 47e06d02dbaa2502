// run_report: the one reader of the telemetry artifacts a run leaves
// behind — run-ledger JSONL files, Chrome traces and folded host profiles.
//
//   run_report [--trace <trace.json> [--trace <other.json>]] [--session N]
//              [--profile <file.folded>] [--check] [<ledger.jsonl> ...]
//
// Ledgers (FFTGRAD_LEDGER, fftgrad/telemetry/ledger.h), per run: the
// manifest line, a per-phase time breakdown (mean seconds per iteration),
// a model-error table per collective kind (predicted vs. charged totals,
// relative error, retries/failures), a health summary (alert counts per
// monitor) and, when the run saw any, the elastic-recovery summary. With
// two or more runs, a cross-run diff compares final loss, total simulated
// time, mean alpha and every summary metric between the first run and
// each later one.
//
// --trace (FFTGRAD_TRACE, fftgrad/telemetry/critical_path.h): the
// critical-path report of the trace's newest simulated session, or of
// session N: the category attribution of the simulated end-to-end time,
// the overlap and pipeline bounds, and the per-iteration and per-rank
// tables. A second --trace adds the category diff of the second trace
// against the first. Each ledger's last run is reconciled against the
// first trace's communication on the path.
//
// --profile (FFTGRAD_PROFILE, fftgrad/telemetry/profiler.h): the ranked
// host self-time table, then host self-time per critical-path category
// beside the first trace's share of the simulated path.
//
// --check: fail the exit status unless every trace's critical path passes
// analysis::validate_critical_path (the analyzer's own problems,
// contiguity, the 1e-6 category sum, happens-before support), the profile
// has samples and survives its folded render/parse round trip, and every
// ledger passes validate_ledger.
//
// Every table is a util::TableWriter table. Exit status: 0 on success, 1
// on unreadable or invalid input or a failed --check. Without --check,
// ledger schema problems only warn, so a damaged ledger still reports
// what it holds.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "fftgrad/analysis/critpath_check.h"
#include "fftgrad/telemetry/critical_path.h"
#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/profiler.h"
#include "fftgrad/util/table.h"

namespace {

using fftgrad::telemetry::CpAnalysis;
using fftgrad::telemetry::CpCategory;
using fftgrad::telemetry::JsonValue;
using fftgrad::telemetry::LedgerRun;
using fftgrad::util::SimSeconds;

struct RunDigest {
  std::string source;
  std::string trainer;
  std::string compressor;
  std::size_t iterations = 0;
  double final_loss = 0.0;
  double sim_time_s = 0.0;
  double mean_alpha = 0.0;
  double mean_ratio = 0.0;
  std::size_t alerts = 0;
  /// Flattened numeric fields of the summary row ("dotted" keys),
  /// compared key-wise in the cross-run diff. Runs from different
  /// code versions may carry different keys; the diff reports those as
  /// added/removed instead of erroring.
  std::vector<std::pair<std::string, double>> metrics;
};

/// Recursively collect every numeric field of `row` under dotted keys
/// ("collectives.allgather.charged_s"). Bookkeeping fields that never
/// compare meaningfully across runs are skipped.
void flatten_numbers(const JsonValue& row, const std::string& prefix,
                     std::vector<std::pair<std::string, double>>& out) {
  for (const auto& [key, value] : row.object) {
    if (key == "type" || key == "run") continue;  // row bookkeeping, never comparable

    const std::string path = prefix.empty() ? key : prefix + "." + key;
    if (value.kind == JsonValue::Kind::kNumber) {
      out.emplace_back(path, value.number);
    } else if (value.kind == JsonValue::Kind::kObject) {
      flatten_numbers(value, path, out);
    }
  }
}

const double* find_metric(const std::vector<std::pair<std::string, double>>& metrics,
                          const std::string& key) {
  for (const auto& [name, value] : metrics) {
    if (name == key) return &value;
  }
  return nullptr;
}

double number_of(const JsonValue& row, const std::string& key) {
  return row.number_or(key, 0.0);
}

/// Mean of a numeric field over iteration rows (0 when there are none).
double mean_over(const std::vector<JsonValue>& rows, const char* object_key, const char* key) {
  if (rows.empty()) return 0.0;
  double sum = 0.0;
  for (const JsonValue& row : rows) {
    const JsonValue* holder = object_key == nullptr ? &row : row.find(object_key);
    if (holder != nullptr) sum += holder->number_or(key, 0.0);
  }
  return sum / static_cast<double>(rows.size());
}

void print_heading(const std::string& text) { std::cout << "\n=== " << text << " ===\n"; }

RunDigest report_run(const LedgerRun& run, const std::string& source) {
  RunDigest digest;
  digest.source = source;
  digest.trainer = run.manifest.string_or("trainer", "?");
  digest.compressor = run.manifest.string_or("compressor", "?");
  digest.iterations = run.iterations.size();
  digest.alerts = run.alerts.size();

  print_heading(digest.trainer + " / " + digest.compressor + " (" + source + ")");
  const JsonValue* network = run.manifest.find("network");
  std::cout << "ranks=" << static_cast<long long>(number_of(run.manifest, "ranks"))
            << " seed=" << static_cast<long long>(number_of(run.manifest, "seed"))
            << " network=" << (network != nullptr ? network->string_or("name", "?") : "?")
            << " fault_rate=" << number_of(run.manifest, "fault_rate")
            << " preset=" << run.manifest.string_or("preset", "?") << "\n";
  // Flatten before the cut-off-run early return: a run with a summary but
  // no iteration rows still participates in the key-wise cross-run diff.
  flatten_numbers(run.summary, "", digest.metrics);
  if (run.iterations.empty()) {
    std::cout << "(no iteration rows — run was cut off before the first step)\n";
    return digest;
  }

  const JsonValue& last = run.iterations.back();
  digest.final_loss = number_of(last, "loss");
  digest.sim_time_s = number_of(last, "sim_time_s");
  digest.mean_alpha = mean_over(run.iterations, "roundtrip", "alpha");
  digest.mean_ratio = mean_over(run.iterations, "roundtrip", "ratio");

  print_heading("Per-phase breakdown (mean s/iter)");
  {
    fftgrad::util::TableWriter table(
        {"forward", "backward", "compress", "decompress", "sim_total"});
    table.set_double_format("%.3e");
    table.add_row({mean_over(run.iterations, "phases", "forward_s"),
                   mean_over(run.iterations, "phases", "backward_s"),
                   mean_over(run.iterations, "phases", "compress_s"),
                   mean_over(run.iterations, "phases", "decompress_s"),
                   digest.sim_time_s / static_cast<double>(run.iterations.size())});
    std::cout << table.to_string();
  }

  // Model-error table: per collective kind, predicted vs charged totals
  // over every iteration row (recomputed from the rows rather than trusting
  // the summary, so truncated runs still report).
  print_heading("Model vs measured per collective");
  {
    struct KindAgg {
      double predicted = 0.0, charged = 0.0, paper = 0.0;
      std::uint64_t count = 0, retries = 0, failed = 0;
    };
    std::vector<std::pair<std::string, KindAgg>> kinds;
    for (const JsonValue& row : run.iterations) {
      const JsonValue* collectives = row.find("collectives");
      if (collectives == nullptr) continue;
      for (const JsonValue& c : collectives->array) {
        const std::string kind = c.string_or("kind", "?");
        KindAgg* agg = nullptr;
        for (auto& [name, a] : kinds) {
          if (name == kind) agg = &a;
        }
        if (agg == nullptr) {
          kinds.emplace_back(kind, KindAgg{});
          agg = &kinds.back().second;
        }
        agg->predicted += number_of(c, "predicted_s");
        agg->charged += number_of(c, "charged_s");
        agg->paper += number_of(c, "paper_model_s");
        agg->count += 1;
        agg->retries += static_cast<std::uint64_t>(number_of(c, "retries"));
        agg->failed += static_cast<std::uint64_t>(number_of(c, "failed"));
      }
    }
    fftgrad::util::TableWriter table({"collective", "compressor", "count", "predicted_s",
                                      "charged_s", "rel_error", "paper_eq2_s", "retries",
                                      "failed"});
    table.set_double_format("%.6g");
    for (const auto& [kind, agg] : kinds) {
      const double rel = agg.predicted > 0.0
                             ? std::fabs(agg.charged - agg.predicted) / agg.predicted
                             : 0.0;
      table.add_row({kind, digest.compressor, static_cast<long long>(agg.count),
                     agg.predicted, agg.charged, rel, agg.paper,
                     static_cast<long long>(agg.retries),
                     static_cast<long long>(agg.failed)});
    }
    std::cout << table.to_string();
  }

  print_heading("Health summary");
  {
    fftgrad::util::TableWriter table({"monitor", "alerts", "first_iter", "detail"});
    std::vector<std::pair<std::string, std::pair<std::size_t, double>>> monitors;
    std::vector<std::string> first_message;
    for (const JsonValue& alert : run.alerts) {
      const std::string monitor = alert.string_or("monitor", "?");
      bool found = false;
      for (std::size_t i = 0; i < monitors.size(); ++i) {
        if (monitors[i].first == monitor) {
          ++monitors[i].second.first;
          found = true;
        }
      }
      if (!found) {
        monitors.push_back({monitor, {1, number_of(alert, "iter")}});
        first_message.push_back(alert.string_or("message", ""));
      }
    }
    if (monitors.empty()) {
      std::cout << "all monitors quiet\n";
    } else {
      for (std::size_t i = 0; i < monitors.size(); ++i) {
        table.add_row({monitors[i].first, static_cast<long long>(monitors[i].second.first),
                       monitors[i].second.second, first_message[i]});
      }
      std::cout << table.to_string();
    }
  }
  // Elastic-recovery summary: the controller's automatic remediations
  // grouped by cause/action, and the rejoin state transfers reconciled
  // against the network model. Printed only when the run saw either —
  // fault-free ledgers keep the old report shape byte for byte.
  {
    struct RemedyAgg {
      std::uint64_t count = 0, unrecovered = 0;
      double cost_s = 0.0, iters_to_recover = 0.0;
    };
    std::vector<std::pair<std::string, RemedyAgg>> remedies;  // "cause -> action"
    for (const JsonValue& row : run.remediations) {
      const std::string key =
          row.string_or("cause", "?") + " -> " + row.string_or("action", "?");
      RemedyAgg* agg = nullptr;
      for (auto& [name, a] : remedies) {
        if (name == key) agg = &a;
      }
      if (agg == nullptr) {
        remedies.emplace_back(key, RemedyAgg{});
        agg = &remedies.back().second;
      }
      agg->count += 1;
      agg->cost_s += number_of(row, "cost_s");
      agg->iters_to_recover += number_of(row, "iterations_to_recover");
      const JsonValue* recovered = row.find("recovered");
      if (recovered != nullptr && !recovered->boolean) agg->unrecovered += 1;
    }

    double transfer_predicted = 0.0, transfer_charged = 0.0, transfer_bytes = 0.0;
    std::uint64_t transfers = 0, transfer_failed = 0;
    for (const JsonValue& row : run.iterations) {
      const JsonValue* collectives = row.find("collectives");
      if (collectives == nullptr) continue;
      for (const JsonValue& c : collectives->array) {
        if (c.string_or("kind", "?") != "state_transfer") continue;
        transfers += 1;
        transfer_predicted += number_of(c, "predicted_s");
        transfer_charged += number_of(c, "charged_s");
        transfer_bytes += number_of(c, "bytes");
        transfer_failed += static_cast<std::uint64_t>(number_of(c, "failed"));
      }
    }

    if (!remedies.empty() || transfers > 0) {
      print_heading("Elastic recovery");
      if (!remedies.empty()) {
        fftgrad::util::TableWriter table({"cause -> action", "count", "cost_s",
                                          "mean_iters_to_recover", "unrecovered"});
        table.set_double_format("%.6g");
        for (const auto& [key, agg] : remedies) {
          table.add_row({key, static_cast<long long>(agg.count), agg.cost_s,
                         agg.iters_to_recover / static_cast<double>(agg.count),
                         static_cast<long long>(agg.unrecovered)});
        }
        std::cout << table.to_string();
      }
      if (transfers > 0) {
        const double rel = transfer_predicted > 0.0
                               ? std::fabs(transfer_charged - transfer_predicted) /
                                     transfer_predicted
                               : 0.0;
        std::cout << "rejoin state transfers: " << transfers << " ("
                  << transfer_bytes / 1024.0 << " KiB), predicted "
                  << transfer_predicted << " s vs charged " << transfer_charged
                  << " s (rel error " << rel << "), failed " << transfer_failed << "\n";
      }
    }
  }
  std::cout << "final loss " << digest.final_loss << ", mean alpha " << digest.mean_alpha
            << ", mean ratio " << digest.mean_ratio << "x, simulated " << digest.sim_time_s
            << " s over " << digest.iterations << " iterations\n";
  return digest;
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buffer[4096];
  for (;;) {
    const std::size_t got = std::fread(buffer, 1, sizeof(buffer), f);
    if (got == 0) break;
    out.append(buffer, got);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// The critical-path category a sample's innermost span belongs to, read
/// from the span category its folded stack carries: `codec` spans and the
/// trainer's compress/decompress phases are codec, the trainer's other
/// phases backprop, and `comm` spans collective (SimCluster charges their
/// simulated time there). Samples outside those spans have none.
std::optional<CpCategory> critpath_category_for(const fftgrad::telemetry::FoldedStack& stack) {
  if (stack.category == "codec") return CpCategory::kCodec;
  if (stack.category == "comm") return CpCategory::kCollective;
  if (stack.category != "trainer") return std::nullopt;
  return stack.span == "compress" || stack.span == "decompress" ? CpCategory::kCodec
                                                                : CpCategory::kBackprop;
}

/// The `Hot paths` section: the ranked host self-time table, then host
/// self-time per critical-path category beside `critical_path`'s share of
/// the simulated path (when a trace was given). Returns the process exit
/// status.
int report_profile(const std::string& path, bool check, const CpAnalysis* critical_path) {
  using fftgrad::telemetry::FoldedStack;
  std::string text;
  if (!read_file(path, text)) {
    std::cerr << "run_report: cannot read profile '" << path << "'\n";
    return 1;
  }
  std::vector<FoldedStack> stacks;
  std::string error;
  if (!fftgrad::telemetry::parse_folded(text, stacks, &error)) {
    std::cerr << "run_report: invalid folded profile '" << path << "': " << error << "\n";
    return 1;
  }
  std::uint64_t total = 0;
  for (const FoldedStack& stack : stacks) total += stack.count;
  if (check) {
    if (total == 0) {
      std::cerr << "run_report: profile check failed: '" << path << "' has no samples\n";
      return 1;
    }
    // Canonical render must survive its own parser byte-for-byte.
    const std::string rendered = fftgrad::telemetry::render_folded(stacks);
    std::vector<FoldedStack> reparsed;
    if (!fftgrad::telemetry::parse_folded(rendered, reparsed, &error) ||
        fftgrad::telemetry::render_folded(reparsed) != rendered) {
      std::cerr << "run_report: profile check failed: folded round-trip mismatch ("
                << (error.empty() ? "re-render differs" : error) << ")\n";
      return 1;
    }
  }

  print_heading("Hot paths (host self-time)");
  std::cout << stacks.size() << " folded stacks, " << total << " samples from " << path
            << "\n";
  std::cout << fftgrad::telemetry::render_hot_paths(fftgrad::telemetry::hot_paths_from(stacks));

  // Divergence between the host and path columns is the point: host-heavy,
  // path-light categories are where host-side SIMD work pays off without
  // the simulation predicting it.
  std::vector<std::pair<std::optional<CpCategory>, std::uint64_t>> by_category;
  for (const FoldedStack& stack : stacks) {
    const std::optional<CpCategory> category = critpath_category_for(stack);
    bool found = false;
    for (auto& [seen, count] : by_category) {
      if (seen == category) {
        count += stack.count;
        found = true;
      }
    }
    if (!found) by_category.emplace_back(category, stack.count);
  }
  print_heading("Host self-time vs simulated critical path");
  fftgrad::util::TableWriter table({"category", "host_samples", "host_share", "path_share"});
  table.set_double_format("%.3f");
  for (const auto& [category, count] : by_category) {
    fftgrad::util::TableWriter::Cell path_share = "-";
    if (category && critical_path != nullptr && critical_path->e2e_s() > SimSeconds(0.0)) {
      path_share =
          critical_path->total_s[static_cast<std::size_t>(*category)] / critical_path->e2e_s();
    }
    table.add_row({category ? fftgrad::telemetry::cp_category_name(*category) : "other",
                   static_cast<long long>(count),
                   total > 0 ? static_cast<double>(count) / static_cast<double>(total) : 0.0,
                   path_share});
  }
  std::cout << table.to_string();
  if (critical_path == nullptr) {
    std::cout << "(pass --trace <trace.json> for the simulated path's share)\n";
  }
  if (check) {
    std::cout << "profile check passed: " << stacks.size() << " stacks, " << total
              << " samples, round-trip stable\n";
  }
  return 0;
}

struct Trace {
  std::string path;
  std::vector<fftgrad::telemetry::CpEvent> events;
  CpAnalysis analysis;
};

/// Load and analyze one trace's cp events; false (with a message) when
/// the file is unreadable or holds no simulated session.
bool load_trace(Trace& trace, std::int64_t session) {
  try {
    trace.events = fftgrad::telemetry::cp_events_from_chrome_json(trace.path, session);
  } catch (const std::exception& error) {
    std::cerr << "run_report: " << trace.path << ": " << error.what() << "\n";
    return false;
  }
  if (trace.events.empty()) {
    std::cerr << "run_report: " << trace.path
              << ": no simulated cp events (was the run traced with FFTGRAD_TRACE set?)\n";
    return false;
  }
  trace.analysis = fftgrad::telemetry::analyze_critical_path(trace.events);
  return true;
}

/// --check on one trace: the analysis layer's structural validator.
bool check_trace(const Trace& trace) {
  const std::vector<std::string> problems =
      fftgrad::analysis::validate_critical_path(trace.analysis, trace.events);
  for (const std::string& problem : problems) {
    std::cerr << "run_report: check: " << trace.path << ": " << problem << "\n";
  }
  if (!problems.empty()) return false;
  std::cout << "\ncheck: critical path is structurally valid (" << trace.analysis.iterations.size()
            << " iterations, category sums within 1e-6)\n";
  return true;
}

/// Each ledger's last run against the trace's communication on the path.
void report_reconciliation(const Trace& trace,
                           const std::vector<std::pair<std::string, LedgerRun>>& last_runs) {
  print_heading("Ledger reconciliation vs comm on path (" + trace.path + ")");
  fftgrad::util::TableWriter table(
      {"ledger", "ledger_charged_s", "path_comm_s", "abs_diff_s", "rel_diff"});
  table.set_double_format("%.9f");
  for (const auto& [path, run] : last_runs) {
    const fftgrad::telemetry::CpLedgerReconcile reconcile =
        fftgrad::telemetry::reconcile_with_ledger(trace.analysis, run);
    if (!reconcile.compared) {
      table.add_row({path, "-", "-", "-", "-"});
      continue;
    }
    table.add_row({path, reconcile.ledger_charged_s.to_double(),
                   reconcile.path_comm_s.to_double(), reconcile.abs_diff_s.to_double(),
                   reconcile.rel_diff});
  }
  std::cout << table.to_string();
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: run_report [--trace <trace.json> [--trace <other.json>]] [--session N]\n"
      "                  [--profile <file.folded>] [--check] [<ledger.jsonl> ...]\n";
  std::vector<Trace> traces;
  std::int64_t session = -1;
  std::string profile_path;
  bool check = false;
  std::vector<std::string> ledger_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--trace" && value != nullptr) {
      traces.push_back(Trace{value, {}, {}});
      ++i;
    } else if (arg == "--session" && value != nullptr) {
      const char* last = value + std::strlen(value);
      const auto [end, error] = std::from_chars(value, last, session);
      if (error != std::errc() || end != last || session < 0) {
        std::cerr << "run_report: --session needs a non-negative integer, not '" << value
                  << "'\n";
        return 1;
      }
      ++i;
    } else if (arg == "--profile" && value != nullptr) {
      profile_path = value;
      ++i;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << usage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "run_report: unknown option or missing value: '" << arg << "'\n" << usage;
      return 1;
    } else {
      ledger_paths.push_back(arg);
    }
  }
  if (traces.size() > 2 || (ledger_paths.empty() && traces.empty() && profile_path.empty())) {
    std::cerr << usage;
    return 1;
  }

  int status = 0;
  std::vector<RunDigest> digests;
  std::vector<std::pair<std::string, LedgerRun>> last_runs;
  for (const std::string& path : ledger_paths) {
    std::vector<LedgerRun> runs;
    try {
      runs = fftgrad::telemetry::read_ledger_file(path);
    } catch (const std::exception& error) {
      std::cerr << "run_report: " << error.what() << "\n";
      return 1;
    }
    for (const std::string& problem : fftgrad::telemetry::validate_ledger(runs)) {
      std::cerr << "run_report: " << (check ? "check: " : "schema warning: ") << path << ": "
                << problem << "\n";
      if (check) status = 1;
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::string source =
          runs.size() == 1 ? path : path + "#" + std::to_string(i);
      digests.push_back(report_run(runs[i], source));
    }
    if (!runs.empty()) last_runs.emplace_back(path, runs.back());
  }
  if (digests.size() >= 2) {
    print_heading("Cross-run diff (vs " + digests[0].source + ")");
    fftgrad::util::TableWriter table({"run", "compressor", "d_final_loss", "d_sim_time_s",
                                      "d_mean_alpha", "alerts"});
    table.set_double_format("%+.4g");
    for (std::size_t i = 1; i < digests.size(); ++i) {
      table.add_row({digests[i].source, digests[i].compressor,
                     digests[i].final_loss - digests[0].final_loss,
                     digests[i].sim_time_s - digests[0].sim_time_s,
                     digests[i].mean_alpha - digests[0].mean_alpha,
                     static_cast<long long>(digests[i].alerts)});
    }
    std::cout << table.to_string();

    // Key-wise summary comparison. Runs recorded by different code
    // versions carry different keys — those become added/removed rows, so
    // a renamed metric degrades to information, not an error.
    for (std::size_t i = 1; i < digests.size(); ++i) {
      print_heading("Summary metrics: " + digests[i].source + " vs " + digests[0].source);
      fftgrad::util::TableWriter metric_table({"metric", "base", "other", "delta"});
      metric_table.set_double_format("%.6g");
      std::vector<std::string> added, removed;
      for (const auto& [key, base_value] : digests[0].metrics) {
        const double* other = find_metric(digests[i].metrics, key);
        if (other == nullptr) {
          removed.push_back(key);
          continue;
        }
        if (*other != base_value) {
          metric_table.add_row({key, base_value, *other, *other - base_value});
        }
      }
      for (const auto& [key, value] : digests[i].metrics) {
        if (find_metric(digests[0].metrics, key) == nullptr) added.push_back(key);
      }
      std::cout << metric_table.to_string();
      for (const std::string& key : removed) {
        std::cout << "removed (only in " << digests[0].source << "): " << key << "\n";
      }
      for (const std::string& key : added) {
        std::cout << "added (only in " << digests[i].source << "): " << key << "\n";
      }
    }
  }

  for (Trace& trace : traces) {
    if (!load_trace(trace, session)) return 1;
    print_heading("Critical path (" + trace.path + ")");
    std::cout << fftgrad::telemetry::render_critpath_report(trace.analysis);
    if (check && !check_trace(trace)) status = 1;
  }
  if (traces.size() == 2) {
    print_heading("Critical-path diff (" + traces[1].path + " vs " + traces[0].path + ")");
    std::cout << fftgrad::telemetry::render_critpath_diff(traces[0].analysis,
                                                          traces[1].analysis);
  }
  if (!traces.empty() && !last_runs.empty()) report_reconciliation(traces[0], last_runs);

  if (!profile_path.empty() &&
      report_profile(profile_path, check, traces.empty() ? nullptr : &traces[0].analysis) != 0) {
    status = 1;
  }
  return status;
}
