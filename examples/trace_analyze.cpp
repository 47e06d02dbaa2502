// trace_analyze: critical-path report over an exported Chrome trace.
//
//   trace_analyze [options] <trace.json> [<baseline-trace.json>]
//
// Loads the cp events of the newest simulated session from a Chrome
// trace-event JSON file (FFTGRAD_TRACE export), runs the cross-rank
// critical-path analyzer, and prints the report: per-iteration category
// attribution (sums to the simulated end-to-end time), the overlap upper
// bounds, and the per-rank busy/idle "flame" summary. With a second trace
// the tool appends a cross-run diff (category and bound deltas of the
// first trace versus the baseline).
//
// Options:
//   --markdown, -m     emit Markdown instead of aligned plain text
//   --session N        analyze simulated session N instead of the newest
//   --ledger <path>    reconcile comm-on-path against the run ledger's
//                      charged collective costs (uses the file's last run)
//   --check            run the structural validator (the analyzer's own
//                      problems, contiguity, 1e-6 category sum,
//                      happens-before support) and fail if any problem is
//                      found
//
// Exit status: 0 on success, 1 on unreadable input, an empty trace, or —
// with --check — a validation problem.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "fftgrad/analysis/critpath_check.h"
#include "fftgrad/telemetry/critical_path.h"
#include "fftgrad/telemetry/ledger.h"

namespace {

void print_usage(std::ostream& out) {
  out << "usage: trace_analyze [--markdown] [--session N] [--ledger <ledger.jsonl>]\n"
         "                     [--check] <trace.json> [<baseline-trace.json>]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fftgrad;

  bool markdown = false;
  bool check = false;
  std::int64_t session = -1;
  std::string ledger_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--markdown" || arg == "-m") {
      markdown = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--session" && i + 1 < argc) {
      session = std::atoll(argv[++i]);
    } else if (arg == "--ledger" && i + 1 < argc) {
      ledger_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "trace_analyze: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 1;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty() || paths.size() > 2) {
    print_usage(std::cerr);
    return 1;
  }

  std::vector<telemetry::CpEvent> events;
  try {
    events = telemetry::cp_events_from_chrome_json(paths[0], session);
  } catch (const std::exception& error) {
    std::cerr << "trace_analyze: " << paths[0] << ": " << error.what() << "\n";
    return 1;
  }
  if (events.empty()) {
    std::cerr << "trace_analyze: " << paths[0]
              << ": no simulated cp events (was the run traced with "
                 "FFTGRAD_TRACE or FFTGRAD_CRITPATH set?)\n";
    return 1;
  }
  const telemetry::CpAnalysis analysis = telemetry::analyze_critical_path(events);
  std::cout << telemetry::render_critpath_report(analysis, markdown);

  if (paths.size() == 2) {
    std::vector<telemetry::CpEvent> baseline_events;
    try {
      baseline_events = telemetry::cp_events_from_chrome_json(paths[1], session);
    } catch (const std::exception& error) {
      std::cerr << "trace_analyze: " << paths[1] << ": " << error.what() << "\n";
      return 1;
    }
    const telemetry::CpAnalysis baseline = telemetry::analyze_critical_path(baseline_events);
    std::cout << telemetry::render_critpath_diff(baseline, analysis, markdown);
  }

  if (!ledger_path.empty()) {
    std::vector<telemetry::LedgerRun> runs;
    try {
      runs = telemetry::read_ledger_file(ledger_path);
    } catch (const std::exception& error) {
      std::cerr << "trace_analyze: " << ledger_path << ": " << error.what() << "\n";
      return 1;
    }
    if (runs.empty()) {
      std::cerr << "trace_analyze: " << ledger_path << ": no runs in ledger\n";
      return 1;
    }
    const telemetry::CpLedgerReconcile reconcile =
        telemetry::reconcile_with_ledger(analysis, runs.back());
    if (markdown) {
      std::cout << "\n## Ledger reconciliation\n\n";
    } else {
      std::cout << "\n=== Ledger reconciliation ===\n";
    }
    if (!reconcile.compared) {
      std::cout << "(ledger run has no collective rows to reconcile against)\n";
    } else {
      std::printf(
          "ledger charged %.9f s, comm on path %.9f s, |diff| %.9f s (rel %.6f)\n",
          reconcile.ledger_charged_s.to_double(), reconcile.path_comm_s.to_double(),
          reconcile.abs_diff_s.to_double(), reconcile.rel_diff);
    }
  }

  int status = 0;
  if (check) {
    const std::vector<std::string> problems =
        analysis::validate_critical_path(analysis, events);
    for (const std::string& problem : problems) {
      std::cerr << "trace_analyze: check: " << problem << "\n";
    }
    if (problems.empty()) {
      std::cout << "\ncheck: critical path is structurally valid ("
                << analysis.iterations.size() << " iterations, category sums within 1e-6)\n";
    } else {
      status = 1;
    }
  } else {
    for (const std::string& problem : analysis.problems) {
      std::cerr << "trace_analyze: warning: " << problem << "\n";
    }
  }
  return status;
}
