#include "fftgrad/telemetry/telemetry.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/profiler.h"
#include "fftgrad/util/logging.h"

namespace fftgrad::telemetry {
namespace {

std::string& trace_path() {
  static std::string path;
  return path;
}

std::string& metrics_path() {
  static std::string path;
  return path;
}

std::string& profile_out_path() {
  static std::string path;
  return path;
}

/// FFTGRAD_PROFILE: stop the sampler, write the folded stacks to
/// FFTGRAD_PROFILE_OUT and the hot-path report next to it, and publish the
/// profile.* gauges. Must run before export_configured() (so the gauges
/// land in the metrics JSON) and before the ledger closes.
void finalize_profiler_configured() {
  if (profile_out_path().empty()) return;
  Profiler& profiler = Profiler::global();
  profiler.stop();
  const std::string& out = profile_out_path();
  profiler.write_folded(out);
  const std::string report = profiler.render_report();
  const std::string report_path = out + ".report.txt";
  std::FILE* f = std::fopen(report_path.c_str(), "w");
  if (f != nullptr) {
    std::fwrite(report.data(), 1, report.size(), f);
    std::fclose(f);
  } else {
    util::log_warn() << "telemetry: cannot write hot-path report to '" << report_path << "'";
  }
  util::log_info() << "telemetry: profile to " << out << " (report: " << report_path << ")";
}

/// FFTGRAD_PROFILE_HZ: an integer in [1, 1000]. Anything else (a
/// malformed number, a fraction, an exponent, a value out of range) warns
/// and keeps the default rate.
int profile_hz_from_env() {
  const char* value = std::getenv("FFTGRAD_PROFILE_HZ");
  if (value == nullptr || *value == '\0') return Profiler::kDefaultHz;
  const char* last = value + std::strlen(value);
  int hz = 0;
  const auto [end, error] = std::from_chars(value, last, hz);
  if (error != std::errc() || end != last || hz < 1 || hz > 1000) {
    util::log_warn() << "telemetry: ignoring FFTGRAD_PROFILE_HZ='" << value
                     << "' (want an integer in [1, 1000]); sampling at "
                     << Profiler::kDefaultHz << " Hz";
    return Profiler::kDefaultHz;
  }
  return hz;
}

}  // namespace

void export_configured() {
  if (!trace_path().empty()) Tracer::global().export_chrome_json(trace_path());
  if (!metrics_path().empty()) MetricsRegistry::global().export_json(metrics_path());
}

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* trace = std::getenv("FFTGRAD_TRACE");
    const char* metrics = std::getenv("FFTGRAD_METRICS");
    const char* ledger = std::getenv("FFTGRAD_LEDGER");
    const char* profile = std::getenv("FFTGRAD_PROFILE");
    const bool profile_on =
        profile != nullptr && *profile != '\0' && std::string(profile) != "0";
    if (trace == nullptr && metrics == nullptr && ledger == nullptr && !profile_on) return;
    if (trace != nullptr && *trace != '\0') {
      trace_path() = trace;
      Tracer::global().set_enabled(true);
      util::log_info() << "telemetry: tracing to " << trace_path();
    }
    if (trace != nullptr || metrics != nullptr) {
      MetricsRegistry::global().set_enabled(true);
      if (metrics != nullptr && *metrics != '\0') {
        metrics_path() = metrics;
      } else if (!trace_path().empty()) {
        metrics_path() = trace_path() + ".metrics.json";
      }
      if (!metrics_path().empty()) {
        util::log_info() << "telemetry: metrics to " << metrics_path();
      }
    }
    if (profile_on) {
      // FFTGRAD_PROFILE=1 uses the FFTGRAD_PROFILE_OUT path (default
      // profile.folded); any other non-zero value doubles as the path.
      const char* out = std::getenv("FFTGRAD_PROFILE_OUT");
      if (out != nullptr && *out != '\0') {
        profile_out_path() = out;
      } else if (std::string(profile) != "1") {
        profile_out_path() = profile;
      } else {
        profile_out_path() = "profile.folded";
      }
      MetricsRegistry::global().set_enabled(true);
      if (!Profiler::global().start(profile_hz_from_env())) profile_out_path().clear();
    }
    if (ledger != nullptr && *ledger != '\0') {
      if (RunLedger::global().open(ledger)) {
        util::log_info() << "telemetry: run ledger to " << ledger;
      }
    }
    std::atexit([] {
      finalize_profiler_configured();
      export_configured();
      RunLedger::global().close();
    });
  });
}

}  // namespace fftgrad::telemetry
