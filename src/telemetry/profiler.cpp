// Host-time sampling profiler: lifecycle, collection, symbolization and
// reporting. The async-signal-safe half (the SIGPROF handler and the
// span-stack writers) lives in profiler_signal.cpp, which fftgrad_lint
// audits; everything here runs in normal thread context and may allocate,
// lock and do IO freely.
//
// Data flow: handler -> per-thread SPSC ring -> collector thread (drains
// every ~50 ms into the pointer-keyed aggregate) -> folded() symbolizes
// (dladdr + __cxa_demangle, cached per address) and merges into
// deterministic, root-first folded stacks.
#include "fftgrad/telemetry/profiler.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include <csignal>
#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <sys/time.h>
#endif

#include "fftgrad/telemetry/metrics.h"
#include "fftgrad/telemetry/trace.h"
#include "fftgrad/util/annotated_mutex.h"
#include "fftgrad/util/logging.h"
#include "fftgrad/util/table.h"
#include "profiler_internal.h"

namespace fftgrad::telemetry {
namespace {

/// Raw aggregation key: samples whose rank, innermost span (by pointer —
/// span names are static literals) and exact pc vector match are counted
/// together before symbolization.
struct AggKey {
  std::int32_t rank = -1;
  const char* span_name = nullptr;
  const char* span_category = nullptr;
  std::vector<void*> pcs;  ///< leaf-first

  bool operator<(const AggKey& other) const {
    return std::tie(rank, span_name, span_category, pcs) <
           std::tie(other.rank, other.span_name, other.span_category, other.pcs);
  }
};

struct ThreadEntry {
  prof::ThreadProfState* state = nullptr;
  std::unique_ptr<prof::SampleRing> ring;
};

struct ProfilerImpl {
  /// Set once by the first start(); gates register_current_thread()'s
  /// fast path so unprofiled runs pay one relaxed load per thread spawn.
  std::atomic<bool> armed{false};
  std::atomic<bool> running{false};
  std::atomic<bool> collector_stop{false};
  std::atomic<int> hz{0};

  /// Serializes start()/stop() and guards the collector handle.
  util::Mutex lifecycle_mutex;
  std::thread collector FFTGRAD_GUARDED_BY(lifecycle_mutex);

  util::Mutex threads_mutex;
  std::vector<ThreadEntry> threads FFTGRAD_GUARDED_BY(threads_mutex);

  /// Serializes ring consumers: the collector's periodic drain and any
  /// folded()/clear() caller. The rings are SPSC, so exactly one consumer
  /// may advance tails at a time.
  util::Mutex drain_mutex;

  util::Mutex agg_mutex;
  std::map<AggKey, std::uint64_t> agg FFTGRAD_GUARDED_BY(agg_mutex);
};

ProfilerImpl& impl() {
  static ProfilerImpl* state = new ProfilerImpl();  // never destroyed
  return *state;
}

void drain_rings(ProfilerImpl& state) {
  util::LockGuard<util::Mutex> consumer(state.drain_mutex);
  std::vector<prof::SampleRing*> rings;
  {
    util::LockGuard<util::Mutex> lock(state.threads_mutex);
    rings.reserve(state.threads.size());
    for (const ThreadEntry& entry : state.threads) rings.push_back(entry.ring.get());
  }
  std::map<AggKey, std::uint64_t> local;
  for (prof::SampleRing* ring : rings) {
    std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    for (; tail != head; ++tail) {
      const prof::Sample& sample = ring->slots[tail % prof::kRingCapacity];
      AggKey key;
      key.rank = sample.rank;
      key.span_name = sample.span_name;
      key.span_category = sample.span_category;
      key.pcs.assign(sample.pcs, sample.pcs + sample.frames);
      ++local[std::move(key)];
    }
    ring->tail.store(tail, std::memory_order_release);
  }
  if (local.empty()) return;
  util::LockGuard<util::Mutex> lock(state.agg_mutex);
  for (const auto& [key, count] : local) state.agg[key] += count;
}

void collector_loop(ProfilerImpl& state) {
  while (!state.collector_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    drain_rings(state);
  }
}

const char* basename_of(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

/// Folded-stack tokens are ';'-separated and the count is split on the
/// last space, so frames may contain spaces (demangled signatures do) but
/// never ';' or line breaks.
void sanitize_token(std::string& token) {
  for (char& c : token) {
    if (c == ';') {
      c = ',';
    } else if (c == '\n' || c == '\r' || c == '\t') {
      c = ' ';
    }
  }
}

std::string symbolize(void* pc, bool leaf, std::map<const void*, std::string>& cache) {
  // Non-leaf frames hold return addresses; step back one byte so the
  // lookup lands inside the call instruction rather than whatever symbol
  // happens to start right after it.
  const void* addr =
      leaf ? pc : static_cast<const void*>(static_cast<const char*>(pc) - 1);
  const auto cached = cache.find(addr);
  if (cached != cache.end()) return cached->second;

  std::string name;
#if defined(__linux__)
  Dl_info info{};
  if (dladdr(addr, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
  } else if (info.dli_fname != nullptr) {
    // Static/local symbol: attribute to the module plus load offset so
    // the frame stays stable and offline-resolvable (addr2line).
    char suffix[32];
    const long offset =
        info.dli_fbase != nullptr
            ? static_cast<long>(static_cast<const char*>(addr) -
                                static_cast<const char*>(info.dli_fbase))
            : 0L;
    std::snprintf(suffix, sizeof(suffix), "+0x%lx", offset);
    name = std::string(basename_of(info.dli_fname)) + suffix;
  }
#endif
  if (name.empty()) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%p", pc);
    name = buffer;
  }
  sanitize_token(name);
  cache.emplace(addr, name);
  return name;
}

bool parse_count(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  out = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    out = out * 10u + static_cast<std::uint64_t>(c - '0');
  }
  return out > 0;
}

std::vector<std::string> split_semicolons(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t at = 0;
  while (at <= text.size()) {
    const std::size_t next = text.find(';', at);
    const std::size_t end = next == std::string::npos ? text.size() : next;
    tokens.push_back(text.substr(at, end - at));
    if (next == std::string::npos) break;
    at = next + 1;
  }
  return tokens;
}

}  // namespace

Profiler& Profiler::global() {
  static Profiler* profiler = new Profiler();  // never destroyed
  return *profiler;
}

void Profiler::register_current_thread() {
  ProfilerImpl& state = impl();
  if (!state.armed.load(std::memory_order_relaxed)) return;
  prof::ThreadProfState& thread = prof::thread_state();
  if (thread.registered != 0) return;
  thread.registered = 1;
  auto ring = std::make_unique<prof::SampleRing>();
  prof::SampleRing* raw = ring.get();
  {
    util::LockGuard<util::Mutex> lock(state.threads_mutex);
    state.threads.push_back(ThreadEntry{&thread, std::move(ring)});
  }
  // Publish last: once visible, the handler may write into the ring.
  thread.ring.store(raw, std::memory_order_release);
}

SampleSite Profiler::current_site() {
  const prof::ThreadProfState& thread = prof::thread_state();
  SampleSite site;
  site.rank = thread.rank;
  const std::uint32_t depth = std::min(thread.depth, prof::kMaxSpanDepth);
  if (depth > 0) {
    site.span_name = thread.span_names[depth - 1];
    site.span_category = thread.span_categories[depth - 1];
  }
  return site;
}

ScopedSampleSite::ScopedSampleSite(const SampleSite& site)
    : previous_rank_(prof::thread_state().rank), pushed_(site.span_name != nullptr) {
  if (pushed_) prof::push_span(site.span_name, site.span_category);
  prof::set_rank(site.rank);
}

ScopedSampleSite::~ScopedSampleSite() {
  prof::set_rank(previous_rank_);
  if (pushed_) prof::pop_span();
}

bool Profiler::start(int hz) {
#if !defined(__linux__)
  (void)hz;
  util::log_warn() << "profiler: SIGPROF sampling is Linux-only; profiling disabled";
  return false;
#else
  ProfilerImpl& state = impl();
  util::LockGuard<util::Mutex> lifecycle(state.lifecycle_mutex);
  if (state.running.load(std::memory_order_acquire)) {
    util::log_warn() << "profiler: start() ignored — already sampling";
    return false;
  }
  if (hz < 1 || hz > 1000) {
    util::log_warn() << "profiler: clamping sample rate " << hz << " into [1, 1000]";
    hz = hz < 1 ? kDefaultHz : 1000;
  }
  state.hz.store(hz, std::memory_order_relaxed);
  state.armed.store(true, std::memory_order_relaxed);

  // Prime backtrace() outside signal context: its first call may load
  // libgcc's unwinder, which allocates. Every later call is allocation-
  // free, which is what makes it usable from the handler.
  void* prime[4];
  backtrace(prime, 4);

  register_current_thread();

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &prof::sigprof_handler;
  action.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    util::log_warn() << "profiler: sigaction(SIGPROF) failed; profiling disabled";
    return false;
  }

  state.collector_stop.store(false, std::memory_order_release);
  state.collector = std::thread([&state] { collector_loop(state); });
  state.running.store(true, std::memory_order_release);
  detail::g_span_hooks.fetch_or(detail::kSpanHookProfile, std::memory_order_relaxed);

  itimerval timer{};
  const long period_us = 1000000L / static_cast<long>(hz);
  timer.it_interval.tv_sec = period_us / 1000000L;
  timer.it_interval.tv_usec = period_us % 1000000L;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    detail::g_span_hooks.fetch_and(~detail::kSpanHookProfile, std::memory_order_relaxed);
    state.collector_stop.store(true, std::memory_order_release);
    if (state.collector.joinable()) state.collector.join();
    state.running.store(false, std::memory_order_release);
    util::log_warn() << "profiler: setitimer(ITIMER_PROF) failed; profiling disabled";
    return false;
  }
  util::log_info() << "profiler: sampling SIGPROF at " << hz
                   << " Hz (process CPU time, all registered threads)";
  return true;
#endif
}

void Profiler::stop() {
  ProfilerImpl& state = impl();
  util::LockGuard<util::Mutex> lifecycle(state.lifecycle_mutex);
  if (!state.running.load(std::memory_order_acquire)) return;
#if defined(__linux__)
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
#endif
  // The handler stays installed: with the timer off it never fires again,
  // and swapping dispositions while a signal is in flight races with the
  // default action (which terminates the process).
  detail::g_span_hooks.fetch_and(~detail::kSpanHookProfile, std::memory_order_relaxed);
  state.collector_stop.store(true, std::memory_order_release);
  if (state.collector.joinable()) state.collector.join();
  drain_rings(state);
  state.running.store(false, std::memory_order_release);

  const Stats totals = stats();
  MetricsRegistry& metrics = MetricsRegistry::global();
  metrics.gauge("profile.samples").set(static_cast<double>(totals.samples));
  metrics.gauge("profile.dropped").set(static_cast<double>(totals.dropped));
  metrics.gauge("profile.truncated").set(static_cast<double>(totals.truncated));
  metrics.gauge("profile.threads").set(static_cast<double>(totals.threads));
  metrics.gauge("profile.hz").set(static_cast<double>(totals.hz));
  util::log_info() << "profiler: stopped after " << totals.samples << " samples ("
                   << totals.dropped << " dropped, " << totals.truncated
                   << " truncated) across " << totals.threads << " threads";
}

bool Profiler::running() const {
  return impl().running.load(std::memory_order_acquire);
}

std::vector<FoldedStack> Profiler::folded() {
  ProfilerImpl& state = impl();
  drain_rings(state);
  std::map<AggKey, std::uint64_t> aggregate;
  {
    util::LockGuard<util::Mutex> lock(state.agg_mutex);
    aggregate = state.agg;
  }
  std::map<const void*, std::string> cache;
  // Distinct pc vectors can symbolize to identical frame lists (inlining,
  // multiple call sites in one function); merge after symbolization so
  // the folded output is canonical.
  std::map<std::tuple<std::int32_t, std::string, std::string, std::vector<std::string>>,
           std::uint64_t>
      merged;
  for (const auto& [key, count] : aggregate) {
    std::vector<std::string> frames;
    frames.reserve(key.pcs.size());
    for (std::size_t i = key.pcs.size(); i-- > 0;) {  // leaf-first -> root-first
      frames.push_back(symbolize(key.pcs[i], /*leaf=*/i == 0, cache));
    }
    std::string span = key.span_name != nullptr ? key.span_name : "";
    std::string category = key.span_category != nullptr ? key.span_category : "";
    sanitize_token(span);
    sanitize_token(category);
    merged[{key.rank, std::move(category), std::move(span), std::move(frames)}] += count;
  }
  std::vector<FoldedStack> out;
  out.reserve(merged.size());
  for (const auto& [key, count] : merged) {
    FoldedStack stack;
    stack.rank = std::get<0>(key);
    stack.category = std::get<1>(key);
    stack.span = std::get<2>(key);
    stack.frames = std::get<3>(key);
    stack.count = count;
    out.push_back(std::move(stack));
  }
  return out;  // map order: deterministic for a given sample population
}

std::string Profiler::render_folded_text() { return render_folded(folded()); }

bool Profiler::write_folded(const std::string& path) {
  const std::string text = render_folded_text();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    util::log_warn() << "profiler: cannot write folded stacks to '" << path << "'";
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = std::fclose(f) == 0;
  if (!ok) util::log_warn() << "profiler: error closing '" << path << "'";
  return ok;
}

std::vector<HotPath> Profiler::hot_paths() { return hot_paths_from(folded()); }

std::string Profiler::render_report(std::size_t top_n) {
  const std::vector<FoldedStack> stacks = folded();
  const Stats totals = stats();
  std::ostringstream out;
  out << "Hot paths (host self-time): " << totals.samples << " samples at " << totals.hz
      << " Hz across " << totals.threads << " threads; " << totals.dropped
      << " dropped, " << totals.truncated << " truncated\n";
  const std::vector<HotPath> paths = hot_paths_from(stacks);
  if (paths.empty()) {
    out << "(no samples — run longer or raise FFTGRAD_PROFILE_HZ)\n";
  } else {
    out << render_hot_paths(paths, top_n);
  }
  return out.str();
}

Profiler::Stats Profiler::stats() const {
  ProfilerImpl& state = impl();
  Stats totals;
  totals.samples = prof::g_samples_taken.load(std::memory_order_relaxed);
  totals.truncated = prof::g_stacks_truncated.load(std::memory_order_relaxed);
  totals.hz = state.hz.load(std::memory_order_relaxed);
  util::LockGuard<util::Mutex> lock(state.threads_mutex);
  totals.threads = state.threads.size();
  for (const ThreadEntry& entry : state.threads) {
    totals.dropped += entry.ring->dropped.load(std::memory_order_relaxed);
  }
  return totals;
}

void Profiler::clear() {
  ProfilerImpl& state = impl();
  {
    // Discard pending samples: advance each tail to the published head.
    util::LockGuard<util::Mutex> consumer(state.drain_mutex);
    util::LockGuard<util::Mutex> lock(state.threads_mutex);
    for (const ThreadEntry& entry : state.threads) {
      entry.ring->tail.store(entry.ring->head.load(std::memory_order_acquire),
                             std::memory_order_release);
    }
  }
  util::LockGuard<util::Mutex> lock(state.agg_mutex);
  state.agg.clear();
}

// ---------------------------------------------------------------------------
// Folded-text grammar (free functions; no profiler needed).

std::string render_folded(const std::vector<FoldedStack>& stacks) {
  std::vector<const FoldedStack*> order;
  order.reserve(stacks.size());
  for (const FoldedStack& stack : stacks) order.push_back(&stack);
  std::sort(order.begin(), order.end(), [](const FoldedStack* a, const FoldedStack* b) {
    return std::tie(a->rank, a->category, a->span, a->frames, a->count) <
           std::tie(b->rank, b->category, b->span, b->frames, b->count);
  });
  std::ostringstream out;
  for (const FoldedStack* stack : order) {
    if (stack->rank < 0) {
      out << "rank:-";
    } else {
      out << "rank:" << stack->rank;
    }
    out << ";cat:" << (stack->category.empty() ? "-" : stack->category);
    out << ";span:" << (stack->span.empty() ? "-" : stack->span);
    for (const std::string& frame : stack->frames) out << ';' << frame;
    out << ' ' << stack->count << '\n';
  }
  return out.str();
}

bool parse_folded(const std::string& text, std::vector<FoldedStack>& out,
                  std::string* error) {
  out.clear();
  std::size_t lineno = 0;
  std::size_t at = 0;
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = "line " + std::to_string(lineno) + ": " + message;
    return false;
  };
  while (at < text.size()) {
    std::size_t end = text.find('\n', at);
    if (end == std::string::npos) end = text.size();
    ++lineno;
    const std::string line = text.substr(at, end - at);
    at = end + 1;
    if (line.empty()) continue;

    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      return fail("missing sample count after last space");
    }
    FoldedStack stack;
    if (!parse_count(line.substr(space + 1), stack.count)) {
      return fail("sample count must be a positive integer");
    }
    const std::vector<std::string> tokens = split_semicolons(line.substr(0, space));
    if (tokens.size() < 3) return fail("want rank:<r>;cat:<c>;span:<s>[;frames...]");

    if (tokens[0].compare(0, 5, "rank:") != 0) return fail("first token must be rank:<r>");
    const std::string rank_text = tokens[0].substr(5);
    if (rank_text == "-") {
      stack.rank = -1;
    } else {
      if (rank_text.empty()) return fail("empty rank");
      std::int64_t rank = 0;
      for (char c : rank_text) {
        if (c < '0' || c > '9') return fail("rank must be '-' or a non-negative integer");
        rank = rank * 10 + (c - '0');
        if (rank > 0x7fffffff) return fail("rank out of range");
      }
      stack.rank = static_cast<std::int32_t>(rank);
    }
    if (tokens[1].compare(0, 4, "cat:") != 0) return fail("second token must be cat:<c>");
    stack.category = tokens[1].substr(4);
    if (stack.category == "-") stack.category.clear();
    if (tokens[2].compare(0, 5, "span:") != 0) return fail("third token must be span:<s>");
    stack.span = tokens[2].substr(5);
    if (stack.span == "-") stack.span.clear();

    for (std::size_t i = 3; i < tokens.size(); ++i) {
      if (tokens[i].empty()) return fail("empty stack frame (';;')");
      stack.frames.push_back(tokens[i]);
    }
    out.push_back(std::move(stack));
  }
  return true;
}

std::vector<HotPath> hot_paths_from(const std::vector<FoldedStack>& stacks) {
  struct Acc {
    std::uint64_t self = 0;
    std::uint64_t total = 0;
    std::map<std::string, std::uint64_t> spans;
  };
  std::map<std::string, Acc> by_symbol;
  std::uint64_t grand_total = 0;
  for (const FoldedStack& stack : stacks) {
    grand_total += stack.count;
    if (stack.frames.empty()) continue;
    Acc& leaf = by_symbol[stack.frames.back()];
    leaf.self += stack.count;
    leaf.spans[stack.span.empty() ? "-" : stack.span] += stack.count;
    const std::set<std::string> unique(stack.frames.begin(), stack.frames.end());
    for (const std::string& frame : unique) by_symbol[frame].total += stack.count;
  }
  std::vector<HotPath> out;
  out.reserve(by_symbol.size());
  for (const auto& [symbol, acc] : by_symbol) {
    HotPath path;
    path.symbol = symbol;
    path.self_samples = acc.self;
    path.total_samples = acc.total;
    if (grand_total > 0) {
      path.self_pct = 100.0 * static_cast<double>(acc.self) / static_cast<double>(grand_total);
      path.total_pct =
          100.0 * static_cast<double>(acc.total) / static_cast<double>(grand_total);
    }
    std::uint64_t best = 0;
    for (const auto& [span, count] : acc.spans) {
      if (count > best) {  // ties: first in map order (lexicographic) wins
        best = count;
        path.top_span = span;
      }
    }
    path.simd_hint = simd_candidate_hint(symbol);
    out.push_back(std::move(path));
  }
  std::sort(out.begin(), out.end(), [](const HotPath& a, const HotPath& b) {
    if (a.self_samples != b.self_samples) return a.self_samples > b.self_samples;
    if (a.total_samples != b.total_samples) return a.total_samples > b.total_samples;
    return a.symbol < b.symbol;
  });
  return out;
}

std::string render_hot_paths(const std::vector<HotPath>& paths, std::size_t top_n) {
  util::TableWriter table(
      {"function", "self", "self%", "total%", "top span", "simd candidate"});
  table.set_double_format("%.1f");
  const std::size_t rows = std::min(top_n, paths.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const HotPath& path = paths[i];
    table.add_row({path.symbol, static_cast<long long>(path.self_samples), path.self_pct,
                   path.total_pct, path.top_span.empty() ? "-" : path.top_span,
                   path.simd_hint.empty() ? "-" : path.simd_hint});
  }
  return table.to_string();
}

std::string simd_candidate_hint(const std::string& symbol) {
  std::string low;
  low.reserve(symbol.size());
  for (char c : symbol) low += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  // The project namespace itself contains "fft"; blank out "fftgrad" so only
  // genuine FFT symbols (FftPlan, rfft, butterfly...) match the FFT family.
  for (std::size_t at = low.find("fftgrad"); at != std::string::npos;
       at = low.find("fftgrad", at + 7)) {
    low.replace(at, 7, "#######");
  }
  const auto contains_any = [&low](std::initializer_list<const char*> needles) {
    for (const char* needle : needles) {
      if (low.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  // Ordered: the FFT family first so e.g. fft pack stages attribute to the
  // codec stage that owns them.
  if (contains_any({"butterfly", "rfft", "irfft", "fft"})) {
    return "fft butterflies (SIMD candidate)";
  }
  if (contains_any({"quantize", "dequant", "range_float", "rangefloat", "half"})) {
    return "half/RangeFloat quantize (SIMD candidate)";
  }
  if (contains_any({"topk", "top_k", "threshold"})) {
    return "top-k threshold scan (SIMD candidate)";
  }
  if (contains_any({"prefix_sum", "bitmap", "pack", "mask"})) {
    return "prefix-sum packing (SIMD candidate)";
  }
  if (contains_any({"crc"})) {
    return "crc framing (SIMD candidate)";
  }
  return "";
}

}  // namespace fftgrad::telemetry
