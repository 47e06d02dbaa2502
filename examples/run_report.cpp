// run_report: aggregate one or more run-ledger JSONL files into a
// terminal or Markdown report.
//
//   run_report [--markdown] <ledger.jsonl> [more.jsonl ...]
//
// Per run: the manifest line, a per-phase time breakdown (mean seconds per
// iteration), a model-error table per collective kind (predicted vs.
// charged totals, relative error, retries/failures), and a health summary
// (alert counts per monitor). With two or more runs, a cross-run diff
// compares final loss, total simulated time, and mean alpha between the
// first run and each later one.
//
// With --profile <file.folded> (output of FFTGRAD_PROFILE=1, see
// fftgrad/telemetry/profiler.h) a `Hot paths` section is appended: the
// ranked host self-time table plus a cross-reference of host self-time
// shares against the simulated critical-path categories of the first
// ledger run (when one carries a critpath row). --check-profile
// additionally validates the folded file — parseable, at least one
// sample, render/parse round-trip stable — and fails the exit status when
// it is not; the profile can also be inspected standalone, with no ledger
// arguments at all.
//
// Exit status: 0 on success, 1 on unreadable/invalid input. Schema
// problems found by validate_ledger are printed but only warn — a
// truncated run (no summary row) still reports its surviving prefix.
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/profiler.h"
#include "fftgrad/util/table.h"

namespace {

using fftgrad::telemetry::JsonValue;
using fftgrad::telemetry::LedgerRun;

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
  /// Flattened numeric fields of the summary + critpath rows ("dotted"
  /// keys), compared key-wise in the cross-run diff. Runs from different
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

void print_heading(bool markdown, const std::string& text) {
  if (markdown) {
    std::cout << "\n## " << text << "\n\n";
  } else {
    std::cout << "\n=== " << text << " ===\n";
  }
}

void print_table(bool markdown, const fftgrad::util::TableWriter& table) {
  // TableWriter's pipe-separated layout is already valid Markdown except
  // for the header separator row; synthesize one by echoing the header.
  const std::string rendered = table.to_string();
  if (!markdown) {
    std::cout << rendered;
    return;
  }
  const std::size_t eol = rendered.find('\n');
  if (eol == std::string::npos) {
    std::cout << rendered;
    return;
  }
  std::cout << "|" << rendered.substr(0, eol) << "|\n|";
  for (char c : rendered.substr(0, eol)) std::cout << (c == '|' ? '|' : '-');
  std::cout << "|\n";
  for (std::size_t at = eol + 1; at < rendered.size();) {
    const std::size_t next = rendered.find('\n', at);
    const std::size_t end = next == std::string::npos ? rendered.size() : next;
    std::cout << "|" << rendered.substr(at, end - at) << "|\n";
    at = end + 1;
  }
}

RunDigest report_run(const LedgerRun& run, const std::string& source, bool markdown) {
  RunDigest digest;
  digest.source = source;
  digest.trainer = run.manifest.string_or("trainer", "?");
  digest.compressor = run.manifest.string_or("compressor", "?");
  digest.iterations = run.iterations.size();
  digest.alerts = run.alerts.size();

  print_heading(markdown, digest.trainer + " / " + digest.compressor + " (" + source + ")");
  const JsonValue* network = run.manifest.find("network");
  std::cout << "ranks=" << static_cast<long long>(number_of(run.manifest, "ranks"))
            << " seed=" << static_cast<long long>(number_of(run.manifest, "seed"))
            << " network=" << (network != nullptr ? network->string_or("name", "?") : "?")
            << " fault_rate=" << number_of(run.manifest, "fault_rate")
            << " preset=" << run.manifest.string_or("preset", "?") << "\n";
  // Flatten before the cut-off-run early return: a run with a summary but
  // no iteration rows still participates in the key-wise cross-run diff.
  flatten_numbers(run.summary, "", digest.metrics);
  flatten_numbers(run.critpath, "critpath", digest.metrics);
  if (run.iterations.empty()) {
    std::cout << "(no iteration rows — run was cut off before the first step)\n";
    return digest;
  }

  const JsonValue& last = run.iterations.back();
  digest.final_loss = number_of(last, "loss");
  digest.sim_time_s = number_of(last, "sim_time_s");
  digest.mean_alpha = mean_over(run.iterations, "roundtrip", "alpha");
  digest.mean_ratio = mean_over(run.iterations, "roundtrip", "ratio");

  print_heading(markdown, "Per-phase breakdown (mean s/iter)");
  {
    fftgrad::util::TableWriter table(
        {"forward", "backward", "compress", "decompress", "sim_total"});
    table.set_double_format("%.3e");
    table.add_row({mean_over(run.iterations, "phases", "forward_s"),
                   mean_over(run.iterations, "phases", "backward_s"),
                   mean_over(run.iterations, "phases", "compress_s"),
                   mean_over(run.iterations, "phases", "decompress_s"),
                   digest.sim_time_s / static_cast<double>(run.iterations.size())});
    print_table(markdown, table);
  }

  // Model-error table: per collective kind, predicted vs charged totals
  // over every iteration row (recomputed from the rows rather than trusting
  // the summary, so truncated runs still report).
  print_heading(markdown, "Model vs measured per collective");
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
    print_table(markdown, table);
  }

  print_heading(markdown, "Health summary");
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
      std::cout << (markdown ? "All monitors quiet.\n" : "all monitors quiet\n");
    } else {
      for (std::size_t i = 0; i < monitors.size(); ++i) {
        table.add_row({monitors[i].first, static_cast<long long>(monitors[i].second.first),
                       monitors[i].second.second, first_message[i]});
      }
      print_table(markdown, table);
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
      print_heading(markdown, "Elastic recovery");
      if (!remedies.empty()) {
        fftgrad::util::TableWriter table({"cause -> action", "count", "cost_s",
                                          "mean_iters_to_recover", "unrecovered"});
        table.set_double_format("%.6g");
        for (const auto& [key, agg] : remedies) {
          table.add_row({key, static_cast<long long>(agg.count), agg.cost_s,
                         agg.iters_to_recover / static_cast<double>(agg.count),
                         static_cast<long long>(agg.unrecovered)});
        }
        print_table(markdown, table);
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
  // Critical-path row (written by the analyzer when FFTGRAD_CRITPATH is
  // set — see fftgrad/telemetry/critical_path.h). Older ledgers have none.
  if (run.critpath.kind == JsonValue::Kind::kObject) {
    print_heading(markdown, "Critical path");
    std::cout << "e2e " << number_of(run.critpath, "e2e_s") << " s over "
              << static_cast<long long>(number_of(run.critpath, "iterations"))
              << " iterations, comm share " << number_of(run.critpath, "comm_share")
              << ", overlap bound " << number_of(run.critpath, "overlap_bound_s")
              << " s, pipeline bound " << number_of(run.critpath, "pipeline_bound_s")
              << " s\n";
    const JsonValue* categories = run.critpath.find("categories");
    if (categories != nullptr && !categories->object.empty()) {
      fftgrad::util::TableWriter table({"category", "on_path_s", "share"});
      table.set_double_format("%.6g");
      const double e2e = number_of(run.critpath, "e2e_s");
      for (const auto& [name, value] : categories->object) {
        if (value.kind != JsonValue::Kind::kNumber) continue;
        table.add_row({name, value.number, e2e > 0.0 ? value.number / e2e : 0.0});
      }
      print_table(markdown, table);
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

bool contains(const std::string& text, const char* needle) {
  return text.find(needle) != std::string::npos;
}

/// Coarse mapping of a sample's span onto the critical-path analyzer's
/// simulated categories (fftgrad/telemetry/critical_path.h), so host
/// self-time shares line up row-by-row with the simulated shares. Every
/// codec span (the trainer's compress/decompress, a codec's own, its fft.*
/// stages, framing and CRC) is `codec`.
std::string critpath_category_for(const fftgrad::telemetry::FoldedStack& stack) {
  std::string span;
  span.reserve(stack.span.size());
  for (char c : stack.span) {
    span += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (span.empty()) return "other";
  for (const char* codec : {"compress", "fft", "quant", "sparse", "topk", "crc", "wire",
                            "encode", "decode"}) {
    if (contains(span, codec)) return "codec";
  }
  if (span == "forward" || span == "backward" || span == "apply") return "backprop";
  if (contains(span, "allgather") || contains(span, "allreduce") ||
      contains(span, "broadcast") || contains(span, "gather") ||
      contains(span, "barrier") || contains(span, "collective")) {
    return "collective";
  }
  return "other";
}

/// The `Hot paths` section: ranked host self-time plus the cross-reference
/// against the first run's simulated critical-path categories. Returns the
/// process exit status (non-zero only in --check-profile mode).
int report_profile(const std::string& path, bool markdown, bool check,
                   const std::vector<RunDigest>& digests) {
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

  print_heading(markdown, "Hot paths (host self-time)");
  std::cout << stacks.size() << " folded stacks, " << total << " samples from " << path
            << "\n";
  const std::vector<fftgrad::telemetry::HotPath> ranked =
      fftgrad::telemetry::hot_paths_from(stacks);
  {
    fftgrad::util::TableWriter table(
        {"function", "self", "self%", "total%", "top span", "simd candidate"});
    table.set_double_format("%.1f");
    const std::size_t rows = ranked.size() < 15 ? ranked.size() : 15;
    for (std::size_t i = 0; i < rows; ++i) {
      const fftgrad::telemetry::HotPath& hot = ranked[i];
      table.add_row({hot.symbol, static_cast<long long>(hot.self_samples), hot.self_pct,
                     hot.total_pct, hot.top_span.empty() ? "-" : hot.top_span,
                     hot.simd_hint.empty() ? "-" : hot.simd_hint});
    }
    print_table(markdown, table);
  }

  // Host share per simulated category, next to the critical-path share of
  // the first reported run (zeros when no run carried a critpath row).
  // Divergence between the columns is the point: host-heavy / sim-light
  // categories are where SIMD work on the codec kernels pays off on the host
  // without the simulation predicting it.
  std::vector<std::pair<std::string, std::uint64_t>> by_category;
  for (const FoldedStack& stack : stacks) {
    const std::string category = critpath_category_for(stack);
    bool found = false;
    for (auto& [name, count] : by_category) {
      if (name == category) {
        count += stack.count;
        found = true;
      }
    }
    if (!found) by_category.emplace_back(category, stack.count);
  }
  print_heading(markdown, "Host self-time vs simulated critical path");
  const double* e2e =
      digests.empty() ? nullptr : find_metric(digests[0].metrics, "critpath.e2e_s");
  fftgrad::util::TableWriter table(
      {"category", "host_samples", "host_share", "critpath_share"});
  table.set_double_format("%.3f");
  for (const auto& [name, count] : by_category) {
    double sim_share = 0.0;
    if (e2e != nullptr && *e2e > 0.0) {
      const double* on_path = find_metric(digests[0].metrics, "critpath.categories." + name);
      if (on_path != nullptr) sim_share = *on_path / *e2e;
    }
    table.add_row({name, static_cast<long long>(count),
                   total > 0 ? static_cast<double>(count) / static_cast<double>(total) : 0.0,
                   sim_share});
  }
  print_table(markdown, table);
  if (e2e == nullptr) {
    std::cout << "(no ledger critpath row to cross-reference — pass a ledger recorded "
                 "with FFTGRAD_CRITPATH)\n";
  }
  if (check) {
    std::cout << "profile check passed: " << stacks.size() << " stacks, " << total
              << " samples, round-trip stable\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool markdown = false;
  bool check_profile = false;
  std::string profile_path;
  std::vector<std::string> paths;
  const char* usage =
      "usage: run_report [--markdown] [--profile <file.folded>] [--check-profile] "
      "[<ledger.jsonl> ...]\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--markdown" || arg == "-m") {
      markdown = true;
    } else if (arg == "--profile") {
      if (i + 1 >= argc) {
        std::cerr << "run_report: --profile needs a folded-stack file argument\n";
        return 1;
      }
      profile_path = argv[++i];
    } else if (arg == "--check-profile") {
      check_profile = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << usage;
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (check_profile && profile_path.empty()) {
    std::cerr << "run_report: --check-profile needs --profile <file.folded>\n";
    return 1;
  }
  if (paths.empty() && profile_path.empty()) {
    std::cerr << usage;
    return 1;
  }

  std::vector<RunDigest> digests;
  for (const std::string& path : paths) {
    std::vector<LedgerRun> runs;
    try {
      runs = fftgrad::telemetry::read_ledger_file(path);
    } catch (const std::exception& error) {
      std::cerr << "run_report: " << error.what() << "\n";
      return 1;
    }
    for (const std::string& problem : fftgrad::telemetry::validate_ledger(runs)) {
      std::cerr << "run_report: schema warning: " << path << ": " << problem << "\n";
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::string source =
          runs.size() == 1 ? path : path + "#" + std::to_string(i);
      digests.push_back(report_run(runs[i], source, markdown));
    }
  }

  if (digests.size() >= 2) {
    print_heading(markdown, "Cross-run diff (vs " + digests[0].source + ")");
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
    print_table(markdown, table);

    // Key-wise summary/critpath comparison. Runs recorded by different
    // code versions carry different keys — those become added/removed
    // rows, so a renamed metric degrades to information, not an error.
    for (std::size_t i = 1; i < digests.size(); ++i) {
      print_heading(markdown, "Summary metrics: " + digests[i].source + " vs " +
                                  digests[0].source);
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
      print_table(markdown, metric_table);
      for (const std::string& key : removed) {
        std::cout << "removed (only in " << digests[0].source << "): " << key << "\n";
      }
      for (const std::string& key : added) {
        std::cout << "added (only in " << digests[i].source << "): " << key << "\n";
      }
    }
  }

  if (!profile_path.empty()) {
    return report_profile(profile_path, markdown, check_profile, digests);
  }
  return 0;
}
