// fftgrad_lint — the project-specific compile-time-discipline gate.
//
// A standalone, dependency-free (std-only, no libclang) token-level checker
// for the invariants the dimensional-type and trust-boundary layer cannot
// express in the type system alone:
//
//   wallclock-in-sim
//     No `std::chrono` clock reads inside src/ outside the designated
//     host-clock homes (util/timer.h, util/logging.cpp, telemetry/trace.cpp,
//     parallel/thread_pool.cpp). Everything else that wants a duration must
//     take a util::WallSeconds or util::SimSeconds, so a wall-clock read
//     can never be silently charged to the simulated timeline.
//
//   raw-quantity-double
//     No bare `double` seconds/bytes/bandwidth fields or parameters in the
//     public headers of the cost-model boundary (src/comm/include,
//     src/perfmodel/include, telemetry/ledger.h, telemetry/critical_path.h).
//     Quantities crossing those APIs must use the util::Quantity types.
//
//   wire-cast-outside-wire
//     No `reinterpret_cast` / `memcpy` in src/ outside the designated wire
//     codec files. Byte-level reinterpretation of payload buffers is
//     confined to the audited encode/decode sites listed (with rationale)
//     in tools/fftgrad_lint.allow.
//
//   untrusted-unvalidated-release
//     Every `Untrusted<T>` must be consumed through its validating
//     release(); any release_unvalidated() call site needs an allowlist
//     entry carrying a rationale.
//
//   unannotated-mutex
//     No bare `std::mutex` / `std::shared_mutex` (or their recursive/timed
//     variants, or the std:: lock guards) in src/ outside the annotated
//     wrapper home (util/annotated_mutex.h). Shared state must sit behind
//     util::Mutex or util::SharedMutex so Clang Thread Safety Analysis
//     (the `thread-safety` preset) can see every acquisition.
//
//   unordered-iteration-ordered-output
//     No `std::unordered_map` / `std::unordered_set` in the layers whose
//     iteration order reaches deterministic output (telemetry exporters,
//     comm protocol state, analysis trackers, core trainers). Hash-table
//     iteration order varies across libstdc++ versions and seeds, which
//     silently breaks bit-identical replicas and golden-file tests; use
//     std::map / std::set (or sort before emitting).
//
//   nondeterminism-source
//     No C PRNGs (`rand`, `srand`, `rand_r`, `drand48`, `lrand48`), no
//     `std::random_device`, and no pointer-as-entropy
//     (`reinterpret_cast` to `uintptr_t`/`intptr_t`) in src/. Everything
//     stochastic must draw from an explicitly seeded engine so identical
//     seeds give identical runs; genuine uses (e.g. a stress-schedule
//     salt) carry an allowlist rationale.
//
//   async-signal-unsafe-call
//     The SIGPROF handler TU (src/telemetry/profiler_signal.cpp and its
//     shared header profiler_internal.h) may contain no allocation
//     (malloc/new/make_unique), no stdio (printf/fopen/std::cout), no
//     locks (std:: or the annotated util:: wrappers — a lock held by the
//     interrupted thread self-deadlocks the handler), no logging, and no
//     `throw`. The handler can interrupt any code on the signaled thread,
//     including the allocator mid-malloc; only lock-free atomics, plain
//     thread-local stores, errno save/restore, and the primed backtrace()
//     are legal there. This is the machine-checked half of the profiler's
//     signal-safety contract (see DESIGN.md "Host-time profiling").
//
// Matching is token-level on comment- and string-stripped sources: precise
// enough for these rules (all four hinge on the presence of a specific
// token in a scoped file set) and robust against the checker itself rotting
// when code moves — there is no AST to desynchronize from.
//
// Usage:
//   fftgrad_lint [--root DIR] [--allowlist FILE] [--json] [--selftest]
//
// Exit status: 0 clean, 1 findings (or selftest failure), 2 usage error.
// --json prints machine-readable findings to stdout. --selftest runs every
// detector (path scoping and allowlist disabled) over tools/lint_fixtures/
// and requires each file's `// LINT-EXPECT: <rule>` annotations to match
// the rules that actually fire — the gate proves it still catches the bug
// classes before it is trusted to pass the tree.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string rule;
  std::string file;   // repo-relative, forward slashes
  std::size_t line;   // 1-based
  std::string message;
};

struct AllowEntry {
  std::string rule;
  std::string path_suffix;
  std::string rationale;
  mutable bool used = false;
};

// ---------------------------------------------------------------------------
// Source loading: strip comments and string/char literals, preserving line
// structure so findings carry real line numbers. Handles //, /* */, "...",
// '...' and R"delim(...)delim".

std::string strip_code(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_close;  // )delim" for the active raw string
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < in.size() && in[i + 1] == '/') {
          state = State::kLine;
          ++i;
        } else if (c == '/' && i + 1 < in.size() && in[i + 1] == '*') {
          state = State::kBlock;
          ++i;
        } else if (c == 'R' && i + 1 < in.size() && in[i + 1] == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(in[i - 1])) &&
                               in[i - 1] != '_'))) {
          std::size_t j = i + 2;
          std::string delim;
          while (j < in.size() && in[j] != '(') delim += in[j++];
          raw_close = ")" + delim + "\"";
          state = State::kRaw;
          out += ' ';
          i = j;  // at '('
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        }
        break;
      case State::kBlock:
        if (c == '*' && i + 1 < in.size() && in[i + 1] == '/') {
          state = State::kCode;
          ++i;
        } else if (c == '\n') {
          out += '\n';
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < in.size()) {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c == '\n') {
          out += '\n';  // unterminated; keep line structure
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < in.size()) {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c == '\n') {
          out += '\n';
          state = State::kCode;
        }
        break;
      case State::kRaw:
        if (c == '\n') {
          out += '\n';
        } else if (in.compare(i, raw_close.size(), raw_close) == 0) {
          state = State::kCode;
          i += raw_close.size() - 1;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  lines.push_back(current);
  return lines;
}

bool is_ident(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Find `token` in `line` at identifier boundaries; npos when absent.
/// `token` may contain "::" (treated as part of the token, boundaries apply
/// to its outer edges).
std::size_t find_token(const std::string& line, const std::string& token,
                       std::size_t from = 0) {
  for (std::size_t at = line.find(token, from); at != std::string::npos;
       at = line.find(token, at + 1)) {
    const bool left_ok = at == 0 || !is_ident(line[at - 1]);
    const std::size_t end = at + token.size();
    const bool right_ok = end >= line.size() || !is_ident(line[end]);
    if (left_ok && right_ok) return at;
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Detectors. Each scans the stripped lines of one file and appends findings.
// Path scoping lives in the caller (run over the tree) so --selftest can run
// every detector on every fixture unconditionally.

void detect_wallclock(const std::string& file, const std::vector<std::string>& lines,
                      std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (find_token(lines[i], "std::chrono") != std::string::npos) {
      findings.push_back({"wallclock-in-sim", file, i + 1,
                          "std::chrono in simulation-charged code; measure through "
                          "util::WallTimer (WallSeconds), which never reaches the "
                          "simulated clock"});
    }
  }
}

/// `double <name>` where <name> looks like a physical quantity.
bool quantity_name(const std::string& name) {
  static const char* suffixes[] = {"_s", "_seconds", "_bytes", "_bps", "_bits"};
  for (const char* suffix : suffixes) {
    const std::size_t n = std::string(suffix).size();
    if (name.size() > n && name.compare(name.size() - n, n, suffix) == 0) return true;
  }
  static const char* exact[] = {"bytes", "seconds", "latency", "bandwidth", "bits"};
  for (const char* e : exact) {
    if (name == e) return true;
  }
  return false;
}

void detect_raw_double(const std::string& file, const std::vector<std::string>& lines,
                       std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    for (std::size_t at = find_token(line, "double"); at != std::string::npos;
         at = find_token(line, "double", at + 6)) {
      std::size_t j = at + 6;
      while (j < line.size() && std::isspace(static_cast<unsigned char>(line[j]))) ++j;
      std::size_t end = j;
      while (end < line.size() && is_ident(line[end])) ++end;
      const std::string name = line.substr(j, end - j);
      if (quantity_name(name)) {
        findings.push_back({"raw-quantity-double", file, i + 1,
                            "bare double '" + name +
                                "' in a cost-model public header; use the dimensional "
                                "util:: types (SimSeconds, Bytes, BytesPerSecond, ...)"});
      }
    }
  }
}

void detect_wire_cast(const std::string& file, const std::vector<std::string>& lines,
                      std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const bool cast = find_token(lines[i], "reinterpret_cast") != std::string::npos;
    const bool copy = find_token(lines[i], "memcpy") != std::string::npos;
    if (cast || copy) {
      findings.push_back({"wire-cast-outside-wire", file, i + 1,
                          std::string(cast ? "reinterpret_cast" : "memcpy") +
                              " outside the designated wire codec files; byte-level "
                              "reinterpretation belongs to the audited encode/decode "
                              "sites in tools/fftgrad_lint.allow"});
    }
  }
}

void detect_unvalidated(const std::string& file, const std::vector<std::string>& lines,
                        std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (find_token(lines[i], "release_unvalidated") != std::string::npos) {
      findings.push_back({"untrusted-unvalidated-release", file, i + 1,
                          "Untrusted<T> consumed without receiver-side validation; use "
                          ".release(validator, what) or add an allowlist entry with a "
                          "rationale"});
    }
  }
}

void detect_unannotated_mutex(const std::string& file, const std::vector<std::string>& lines,
                              std::vector<Finding>& findings) {
  // The std:: guards are flagged alongside the mutex types: a std::lock_guard
  // over an annotated mutex compiles, but the scoped acquisition is invisible
  // to the thread-safety analysis.
  static const char* tokens[] = {"std::mutex",      "std::shared_mutex",
                                 "std::recursive_mutex", "std::timed_mutex",
                                 "std::lock_guard", "std::unique_lock",
                                 "std::scoped_lock", "std::shared_lock"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const char* token : tokens) {
      if (find_token(lines[i], token) != std::string::npos) {
        findings.push_back({"unannotated-mutex", file, i + 1,
                            std::string(token) +
                                " is invisible to Clang Thread Safety Analysis; use "
                                "util::Mutex/util::SharedMutex with util::LockGuard/"
                                "UniqueLock/SharedLockGuard"});
        break;  // one finding per line, whichever token hit first
      }
    }
  }
}

void detect_unordered_iteration(const std::string& file, const std::vector<std::string>& lines,
                                std::vector<Finding>& findings) {
  static const char* tokens[] = {"std::unordered_map", "std::unordered_set",
                                 "std::unordered_multimap", "std::unordered_multiset"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const char* token : tokens) {
      if (find_token(lines[i], token) != std::string::npos) {
        findings.push_back({"unordered-iteration-ordered-output", file, i + 1,
                            std::string(token) +
                                " in a layer whose iteration order reaches deterministic "
                                "output (exports, protocol agreement, replica state); use "
                                "std::map/std::set or sort before emitting"});
        break;
      }
    }
  }
}

void detect_nondeterminism(const std::string& file, const std::vector<std::string>& lines,
                           std::vector<Finding>& findings) {
  static const char* prngs[] = {"rand", "srand", "rand_r", "drand48", "lrand48",
                                "std::random_device", "random_device"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const char* hit = nullptr;
    for (const char* token : prngs) {
      if (find_token(line, token) != std::string::npos) {
        hit = token;
        break;
      }
    }
    if (hit != nullptr) {
      findings.push_back({"nondeterminism-source", file, i + 1,
                          std::string(hit) +
                              " draws entropy outside the seeded-engine discipline; use an "
                              "explicitly seeded engine (util::SplitMix/std::mt19937_64) so "
                              "identical seeds replay identical runs"});
      continue;
    }
    // Pointer-as-entropy: a pointer value laundered through an integer on
    // one line. Addresses vary per run under ASLR, so anything derived from
    // them (hashes, salts, tie-breaks) de-determinizes the run.
    if (find_token(line, "reinterpret_cast") != std::string::npos &&
        (line.find("uintptr_t") != std::string::npos ||
         line.find("intptr_t") != std::string::npos)) {
      findings.push_back({"nondeterminism-source", file, i + 1,
                          "pointer laundered to an integer; addresses vary per run (ASLR), "
                          "so values derived from them are nondeterministic — key on a "
                          "stable id instead, or allowlist with a rationale"});
    }
  }
}

void detect_async_signal_unsafe(const std::string& file,
                                const std::vector<std::string>& lines,
                                std::vector<Finding>& findings) {
  // Anything on this list can deadlock, corrupt state, or allocate when
  // called from a signal handler that interrupted the same facility. The
  // util:: lock wrappers are forbidden alongside the std:: primitives:
  // annotation does not make a lock signal-safe.
  static const char* tokens[] = {
      // allocation
      "malloc", "calloc", "realloc", "free", "new", "delete", "make_unique",
      "make_shared",
      // stdio
      "printf", "fprintf", "sprintf", "snprintf", "vprintf", "vfprintf", "puts",
      "fputs", "fputc", "fwrite", "fopen", "fclose", "std::cout", "std::cerr",
      "std::clog",
      // locks (std:: and the project wrappers)
      "std::mutex", "std::shared_mutex", "std::recursive_mutex", "std::timed_mutex",
      "std::lock_guard", "std::unique_lock", "std::scoped_lock", "std::shared_lock",
      "util::Mutex", "util::SharedMutex", "util::LockGuard", "util::UniqueLock",
      "util::SharedLockGuard", "pthread_mutex_lock", "pthread_mutex_unlock",
      // logging and exceptions
      "log_debug", "log_info", "log_warn", "log_error", "throw"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const char* token : tokens) {
      if (find_token(lines[i], token) != std::string::npos) {
        findings.push_back({"async-signal-unsafe-call", file, i + 1,
                            std::string(token) +
                                " is not async-signal-safe; the SIGPROF handler TU may "
                                "only use lock-free atomics, plain thread-local stores, "
                                "errno save/restore and the primed backtrace()"});
        break;  // one finding per line, whichever token hit first
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tree-mode scoping.

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool in_wallclock_scope(const std::string& rel) { return starts_with(rel, "src/"); }

bool in_raw_double_scope(const std::string& rel) {
  if (starts_with(rel, "src/comm/include/")) return true;
  if (starts_with(rel, "src/perfmodel/include/")) return true;
  return rel == "src/telemetry/include/fftgrad/telemetry/ledger.h" ||
         rel == "src/telemetry/include/fftgrad/telemetry/critical_path.h";
}

bool in_wire_cast_scope(const std::string& rel) { return starts_with(rel, "src/"); }

bool in_unvalidated_scope(const std::string& rel) {
  return starts_with(rel, "src/") || starts_with(rel, "tests/") ||
         starts_with(rel, "bench/") || starts_with(rel, "examples/");
}

// Product code only: tests/benches may use bare std primitives freely.
bool in_unannotated_mutex_scope(const std::string& rel) { return starts_with(rel, "src/"); }

// Layers whose container iteration order reaches deterministic output:
// telemetry (JSON/trace exports), comm (protocol agreement), analysis
// (violation reports keyed by iteration), core (replica state).
bool in_unordered_scope(const std::string& rel) {
  return starts_with(rel, "src/telemetry/") || starts_with(rel, "src/comm/") ||
         starts_with(rel, "src/analysis/") || starts_with(rel, "src/core/");
}

bool in_nondeterminism_scope(const std::string& rel) { return starts_with(rel, "src/"); }

// Exactly the signal-handler TU and its shared header: the one place in
// the tree where code must be async-signal-safe.
bool in_signal_tu_scope(const std::string& rel) {
  return rel == "src/telemetry/profiler_signal.cpp" ||
         rel == "src/telemetry/profiler_internal.h";
}

bool source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".h" || ext == ".hpp" || ext == ".cc";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Allowlist: `rule | path-suffix | rationale` lines, '#' comments.

std::string trim(const std::string& s) {
  std::size_t a = 0;
  std::size_t b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

std::vector<AllowEntry> load_allowlist(const fs::path& path, std::vector<std::string>& errors) {
  std::vector<AllowEntry> entries;
  std::ifstream in(path);
  if (!in) return entries;  // absent allowlist: nothing allowed
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string text = trim(line);
    if (text.empty() || text[0] == '#') continue;
    const std::size_t p1 = text.find('|');
    const std::size_t p2 = p1 == std::string::npos ? std::string::npos : text.find('|', p1 + 1);
    if (p2 == std::string::npos) {
      errors.push_back(path.string() + ":" + std::to_string(lineno) +
                       ": malformed allowlist entry (want `rule | path | rationale`)");
      continue;
    }
    AllowEntry entry;
    entry.rule = trim(text.substr(0, p1));
    entry.path_suffix = trim(text.substr(p1 + 1, p2 - p1 - 1));
    entry.rationale = trim(text.substr(p2 + 1));
    if (entry.rule.empty() || entry.path_suffix.empty() || entry.rationale.empty()) {
      errors.push_back(path.string() + ":" + std::to_string(lineno) +
                       ": allowlist entry needs a non-empty rule, path and rationale");
      continue;
    }
    entries.push_back(entry);
  }
  return entries;
}

bool allowed(const Finding& f, const std::vector<AllowEntry>& entries) {
  for (const AllowEntry& e : entries) {
    if (e.rule == f.rule && ends_with(f.file, e.path_suffix)) {
      e.used = true;
      return true;
    }
  }
  return false;
}

/// Full JSON string escaping. The original version handled only quotes,
/// backslashes and newlines, so a tab or carriage return in a message (or a
/// control character smuggled into a filename) produced output no strict
/// JSON parser would accept. Every control character below 0x20 must be
/// escaped per RFC 8259; the named shorthands keep the common ones readable.
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Render findings as a JSON array — the single emitter behind --json and
/// the selftest's round-trip check, so the two can never drift apart.
std::string render_json(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "" : ",") << "\n  {\"rule\":\"" << json_escape(f.rule)
        << "\",\"file\":\"" << json_escape(f.file) << "\",\"line\":" << f.line
        << ",\"message\":\"" << json_escape(f.message) << "\"}";
  }
  out << (findings.empty() ? "]" : "\n]") << "\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Strict mini JSON parser, used only by the selftest to prove --json output
// round-trips: parse(render(findings)) must reproduce the findings exactly,
// including quotes, backslashes and control characters in file names and
// messages. Supports exactly the shape render_json emits (an array of flat
// objects with string/number values) and rejects everything malformed.

struct JsonParser {
  const std::string& text;
  std::size_t at = 0;
  bool ok = true;

  explicit JsonParser(const std::string& t) : text(t) {}

  void skip_ws() {
    while (at < text.size() && (text[at] == ' ' || text[at] == '\n' || text[at] == '\t' ||
                                text[at] == '\r')) {
      ++at;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (at < text.size() && text[at] == c) {
      ++at;
      return true;
    }
    ok = false;
    return false;
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) return out;
    while (at < text.size() && text[at] != '"') {
      char c = text[at++];
      if (c != '\\') {
        // Strict: raw control characters are invalid inside JSON strings.
        if (static_cast<unsigned char>(c) < 0x20) {
          ok = false;
          return out;
        }
        out += c;
        continue;
      }
      if (at >= text.size()) {
        ok = false;
        return out;
      }
      const char esc = text[at++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (at + 4 > text.size()) {
            ok = false;
            return out;
          }
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text[at++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              ok = false;
              return out;
            }
          }
          if (code > 0x7f) {  // the emitter only \u-escapes control bytes
            ok = false;
            return out;
          }
          out += static_cast<char>(code);
          break;
        }
        default: ok = false; return out;
      }
    }
    if (!consume('"')) ok = false;
    return out;
  }

  std::size_t parse_number() {
    skip_ws();
    std::size_t value = 0;
    bool any = false;
    while (at < text.size() && text[at] >= '0' && text[at] <= '9') {
      value = value * 10 + static_cast<std::size_t>(text[at++] - '0');
      any = true;
    }
    if (!any) ok = false;
    return value;
  }

  std::vector<Finding> parse_findings() {
    std::vector<Finding> out;
    if (!consume('[')) return out;
    skip_ws();
    if (at < text.size() && text[at] == ']') {
      ++at;
      return out;
    }
    do {
      Finding f;
      if (!consume('{')) return out;
      for (int field = 0; field < 4; ++field) {
        if (field > 0 && !consume(',')) return out;
        skip_ws();
        const std::string key = parse_string();
        if (!ok || !consume(':')) return out;
        if (key == "rule") {
          f.rule = parse_string();
        } else if (key == "file") {
          f.file = parse_string();
        } else if (key == "message") {
          f.message = parse_string();
        } else if (key == "line") {
          f.line = parse_number();
        } else {
          ok = false;
          return out;
        }
        if (!ok) return out;
      }
      if (!consume('}')) return out;
      out.push_back(std::move(f));
      skip_ws();
    } while (at < text.size() && text[at] == ',' && ++at != 0);
    if (!consume(']')) ok = false;
    skip_ws();
    if (at != text.size()) ok = false;  // trailing garbage
    return out;
  }
};

/// Selftest leg for the --json emitter: findings whose file and message
/// carry quotes, backslashes, tabs and raw control bytes must survive a
/// render -> strict-parse round trip byte-for-byte. (Adversarial file
/// names reach the emitter for real: fixture and allowlist paths are
/// user-controlled.)
int selftest_json_roundtrip() {
  std::vector<Finding> nasty;
  nasty.push_back({"wire-cast-outside-wire", "src/weird \"quoted\" name.cpp", 7,
                   "message with \"quotes\", a back\\slash and a\ttab"});
  nasty.push_back({"nondeterminism-source", "src\\windows\\style.cpp", 123,
                   std::string("control bytes: \n\r\b\f and \x01\x1f") + " end"});
  nasty.push_back({"unannotated-mutex", "src/plain.cpp", 1, "plain message"});

  const std::string rendered = render_json(nasty);
  JsonParser parser(rendered);
  const std::vector<Finding> parsed = parser.parse_findings();
  if (!parser.ok) {
    std::cerr << "selftest FAIL json-roundtrip: emitted JSON does not parse strictly:\n"
              << rendered;
    return 1;
  }
  if (parsed.size() != nasty.size()) {
    std::cerr << "selftest FAIL json-roundtrip: " << parsed.size() << " of " << nasty.size()
              << " findings survived the round trip\n";
    return 1;
  }
  for (std::size_t i = 0; i < nasty.size(); ++i) {
    if (parsed[i].rule != nasty[i].rule || parsed[i].file != nasty[i].file ||
        parsed[i].line != nasty[i].line || parsed[i].message != nasty[i].message) {
      std::cerr << "selftest FAIL json-roundtrip: finding " << i
                << " mutated in transit (file '" << parsed[i].file << "', message '"
                << parsed[i].message << "')\n";
      return 1;
    }
  }
  // The empty array must also be well-formed.
  const std::string empty = render_json({});
  JsonParser empty_parser(empty);
  if (!empty_parser.parse_findings().empty() || !empty_parser.ok) {
    std::cerr << "selftest FAIL json-roundtrip: empty findings render malformed: " << empty;
    return 1;
  }
  return 0;
}

void run_all_detectors(const std::string& file, const std::vector<std::string>& lines,
                       std::vector<Finding>& findings) {
  detect_wallclock(file, lines, findings);
  detect_raw_double(file, lines, findings);
  detect_wire_cast(file, lines, findings);
  detect_unvalidated(file, lines, findings);
  detect_unannotated_mutex(file, lines, findings);
  detect_unordered_iteration(file, lines, findings);
  detect_nondeterminism(file, lines, findings);
  detect_async_signal_unsafe(file, lines, findings);
}

int run_selftest(const fs::path& root) {
  const fs::path fixtures = root / "tools" / "lint_fixtures";
  if (!fs::is_directory(fixtures)) {
    std::cerr << "fftgrad_lint: no fixture directory at " << fixtures << "\n";
    return 1;
  }
  std::size_t files = 0;
  std::size_t failures = 0;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(fixtures)) {
    if (entry.is_regular_file() && source_file(entry.path())) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    ++files;
    const std::string raw = read_file(path);
    // Expected rules, from the raw (un-stripped) text: `// LINT-EXPECT: rule`.
    std::multiset<std::string> expected;
    std::istringstream in(raw);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t at = line.find("LINT-EXPECT:");
      if (at != std::string::npos) expected.insert(trim(line.substr(at + 12)));
    }
    std::vector<Finding> findings;
    run_all_detectors(path.filename().string(), split_lines(strip_code(raw)), findings);
    std::multiset<std::string> fired;
    for (const Finding& f : findings) fired.insert(f.rule);
    if (fired != expected) {
      ++failures;
      std::cerr << "selftest FAIL " << path.filename().string() << "\n  expected:";
      for (const std::string& r : expected) std::cerr << " " << r;
      std::cerr << "\n  fired:   ";
      for (const std::string& r : fired) std::cerr << " " << r;
      std::cerr << "\n";
    }
  }
  failures += static_cast<std::size_t>(selftest_json_roundtrip());
  std::cout << "fftgrad_lint selftest: " << files - failures << "/" << files
            << " fixtures match their LINT-EXPECT annotations (+ json round-trip)\n";
  return failures == 0 && files > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  fs::path allowlist_path;
  bool json = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--allowlist" && i + 1 < argc) {
      allowlist_path = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      std::cerr << "usage: fftgrad_lint [--root DIR] [--allowlist FILE] [--json] "
                   "[--selftest]\n";
      return 2;
    }
  }
  root = fs::absolute(root);
  if (allowlist_path.empty()) allowlist_path = root / "tools" / "fftgrad_lint.allow";

  if (selftest) return run_selftest(root);

  std::vector<std::string> errors;
  const std::vector<AllowEntry> allow = load_allowlist(allowlist_path, errors);

  std::vector<Finding> findings;
  const char* scan_roots[] = {"src", "tests", "bench", "examples"};
  for (const char* dir : scan_roots) {
    const fs::path base = root / dir;
    if (!fs::is_directory(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !source_file(entry.path())) continue;
      std::string rel = fs::relative(entry.path(), root).generic_string();
      const std::vector<std::string> lines = split_lines(strip_code(read_file(entry.path())));
      std::vector<Finding> raw;
      if (in_wallclock_scope(rel)) detect_wallclock(rel, lines, raw);
      if (in_raw_double_scope(rel)) detect_raw_double(rel, lines, raw);
      if (in_wire_cast_scope(rel)) detect_wire_cast(rel, lines, raw);
      if (in_unvalidated_scope(rel)) detect_unvalidated(rel, lines, raw);
      if (in_unannotated_mutex_scope(rel)) detect_unannotated_mutex(rel, lines, raw);
      if (in_unordered_scope(rel)) detect_unordered_iteration(rel, lines, raw);
      if (in_nondeterminism_scope(rel)) detect_nondeterminism(rel, lines, raw);
      if (in_signal_tu_scope(rel)) detect_async_signal_unsafe(rel, lines, raw);
      for (Finding& f : raw) {
        if (!allowed(f, allow)) findings.push_back(std::move(f));
      }
    }
  }

  for (const AllowEntry& e : allow) {
    if (!e.used) {
      errors.push_back("stale allowlist entry (matched nothing): " + e.rule + " | " +
                       e.path_suffix);
    }
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });

  if (json) {
    std::cout << render_json(findings);
  } else {
    for (const Finding& f : findings) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
    }
  }
  for (const std::string& e : errors) std::cerr << "fftgrad_lint: " << e << "\n";
  if (!json) {
    std::cout << "fftgrad_lint: " << findings.size() << " finding(s), " << errors.size()
              << " config error(s)\n";
  }
  return findings.empty() && errors.empty() ? 0 : 1;
}
