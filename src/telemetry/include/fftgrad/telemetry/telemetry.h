// Process-level telemetry switchboard.
//
// init_from_env() is the one call examples and benches make at startup:
//   FFTGRAD_TRACE=<path>    enable tracing + metrics; write Chrome trace
//                           JSON to <path> at exit (open it in Perfetto or
//                           chrome://tracing), and metrics JSON alongside
//                           to <path>.metrics.json unless overridden.
//   FFTGRAD_METRICS=<path>  enable metrics; write the registry's JSON to
//                           <path> at exit.
//   FFTGRAD_LEDGER=<path>   enable the run ledger; trainers append JSONL
//                           rows (manifest / iteration / alert / summary)
//                           to <path>, closed at exit. Monitor thresholds
//                           are the ledger.h constants.
//   FFTGRAD_PROFILE=1       enable the host-time sampling profiler; write
//                           folded stacks (flamegraph input) plus a
//                           hot-path report at exit. A value other than
//                           0/1 doubles as the output path. Rate from
//                           FFTGRAD_PROFILE_HZ (default 97), output path
//                           from FFTGRAD_PROFILE_OUT (default
//                           profile.folded; report at <out>.report.txt).
//                           See fftgrad/telemetry/profiler.h.
// With none of the variables set, telemetry stays disabled and every
// TraceSpan / metric update / ledger hook is a single relaxed atomic check.
#pragma once

#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/metrics.h"
#include "fftgrad/telemetry/trace.h"

namespace fftgrad::telemetry {

/// Read FFTGRAD_TRACE / FFTGRAD_METRICS, enable the tracer/registry
/// accordingly, and register an atexit hook that writes the configured
/// files. Idempotent; safe to call from multiple binaries' main().
void init_from_env();

/// Write the configured trace/metrics files now (also runs at exit).
/// No-op when init_from_env() found neither variable.
void export_configured();

}  // namespace fftgrad::telemetry
