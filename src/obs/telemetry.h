// Pipeline telemetry: counters, gauges, fixed-bucket latency histograms and
// scoped spans for observing the capture->decode->analyze toolchain itself.
//
// Design constraints (DESIGN.md §10):
//  - Dependency-free: standard library only, no allocation on the hot path.
//  - One shared cell per metric: registration makes the metric's cell once,
//    and every update from any thread is a relaxed atomic on that cell. No
//    state is kept per thread, so a thread that exits leaves nothing behind.
//    The registry mutex is taken only on registration, snapshot and reset.
//  - Deterministic snapshot: a snapshot reads each cell once and lists the
//    metrics sorted by name, so the rendered output is independent of thread
//    count and scheduling.
//  - Compile-out: building with -DHWPROF_NO_TELEMETRY stubs every update to
//    nothing so the cost can itself be measured (bench_telemetry_overhead).
//    A runtime kill-switch (SetEnabled(false)) covers in-binary comparisons.
//
// Instrumentation macros:
//   OBS_COUNT(name, n)        bump counter `name` by n
//   OBS_GAUGE_ADD(name, d)    move gauge `name` by signed delta d (tracks peak)
//   OBS_HIST_NS(name, ns)     record a latency sample, in nanoseconds
//   OBS_SCOPED_SPAN(name)     RAII span: records elapsed ns at scope exit
//   OBS_SPAN_BEGIN(tok)       open a manual span named by token `tok`
//   OBS_SPAN_END(tok, name)   close it into histogram `name`
// Manual spans must balance on every path; `hwprof_lint` enforces this with
// the obs-span-balance rule (prefer OBS_SCOPED_SPAN where control flow is
// nontrivial).

#ifndef HWPROF_SRC_OBS_TELEMETRY_H_
#define HWPROF_SRC_OBS_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hwprof {
namespace obs {

#if defined(HWPROF_NO_TELEMETRY)
inline constexpr bool kTelemetryCompiledIn = false;
#else
inline constexpr bool kTelemetryCompiledIn = true;
#endif

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

// Fixed log-ish bucket ladder, in nanoseconds: 1us .. 1s, then overflow.
inline constexpr int kHistogramBuckets = 20;
const std::array<std::uint64_t, kHistogramBuckets - 1>& HistogramBoundsNs();
// The bucket a sample lands in: the first bound >= ns, else the overflow
// bucket. The one ladder rule for live histograms and hand-built ladders.
std::size_t HistogramBucket(std::uint64_t ns);

// One metric as rendered by a snapshot. Field use depends on kind:
//   counter:   count
//   gauge:     value, peak
//   histogram: count, sum_ns, min_ns, max_ns, buckets
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;
  std::int64_t value = 0;
  std::int64_t peak = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

// A point-in-time view of every registered metric, sorted by name.
struct Snapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* Find(const std::string& name) const;
  std::uint64_t CounterValue(const std::string& name) const;

  // Deterministic human-readable block, each line indented by `indent`.
  std::string FormatText(int indent) const;
  // Deterministic JSON array (one object per metric).
  std::string FormatJson() const;
};

// Runtime kill-switch. Defaults to enabled (when compiled in).
bool Enabled();
void SetEnabled(bool enabled);

// Reads every registered metric into a snapshot sorted by name.
Snapshot GlobalSnapshot();

// Zeroes every metric value (registrations survive). Callers must be
// quiescent: concurrent updates during a reset may survive it.
void ResetTelemetry();

std::uint64_t MonotonicNowNs();

// Returns MonotonicNowNs() when telemetry is live, 0 when disabled, so
// disabled spans skip the clock read entirely.
std::uint64_t SpanClock();

#if !defined(HWPROF_NO_TELEMETRY)

namespace internal {

// One metric's shared storage, made once at registration and never freed.
// A counter uses `count`; a gauge `value` and `peak`; a histogram `count`,
// `sum`, `min`, `max` and `buckets`.
struct Cell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::int64_t> value{0};
  std::atomic<std::int64_t> peak{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

// Registers `name` (idempotent) and returns its cell. Aborts on a kind
// mismatch, which is a programming error.
Cell* Intern(const char* name, MetricKind kind);

}  // namespace internal

class Counter {
 public:
  explicit Counter(const char* name)
      : cell_(internal::Intern(name, MetricKind::kCounter)) {}
  void Add(std::uint64_t n = 1) {
    if (!Enabled()) return;
    cell_->count.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  internal::Cell* cell_;
};

class Gauge {
 public:
  explicit Gauge(const char* name)
      : cell_(internal::Intern(name, MetricKind::kGauge)) {}
  void Add(std::int64_t delta);

 private:
  internal::Cell* cell_;
};

class LatencyHistogram {
 public:
  explicit LatencyHistogram(const char* name)
      : cell_(internal::Intern(name, MetricKind::kHistogram)) {}
  void RecordNs(std::uint64_t ns);

 private:
  internal::Cell* cell_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(LatencyHistogram& hist)
      : hist_(hist), start_(SpanClock()) {}
  ~ScopedSpan() {
    if (start_ != 0) hist_.RecordNs(MonotonicNowNs() - start_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  LatencyHistogram& hist_;
  std::uint64_t start_;
};

#else  // HWPROF_NO_TELEMETRY: every handle is an empty shell.

class Counter {
 public:
  explicit Counter(const char*) {}
  void Add(std::uint64_t = 1) {}
};

class Gauge {
 public:
  explicit Gauge(const char*) {}
  void Add(std::int64_t) {}
};

class LatencyHistogram {
 public:
  explicit LatencyHistogram(const char*) {}
  void RecordNs(std::uint64_t) {}
};

class ScopedSpan {
 public:
  explicit ScopedSpan(LatencyHistogram&) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

#endif  // HWPROF_NO_TELEMETRY

}  // namespace obs
}  // namespace hwprof

// Each macro expands inside its own block, so the function-local static
// handle resolves the metric's cell exactly once per site.
#define OBS_COUNT(name, n)                       \
  do {                                           \
    static ::hwprof::obs::Counter obs_c_(name);  \
    obs_c_.Add(n);                               \
  } while (0)

#define OBS_GAUGE_ADD(name, delta)             \
  do {                                         \
    static ::hwprof::obs::Gauge obs_g_(name);  \
    obs_g_.Add(delta);                         \
  } while (0)

#define OBS_HIST_NS(name, ns)                             \
  do {                                                    \
    static ::hwprof::obs::LatencyHistogram obs_h_(name);  \
    obs_h_.RecordNs(ns);                                  \
  } while (0)

#define OBS_SPAN_NAME2(a, b) a##b
#define OBS_SPAN_NAME(a, b) OBS_SPAN_NAME2(a, b)

#define OBS_SCOPED_SPAN(name)                                          \
  static ::hwprof::obs::LatencyHistogram OBS_SPAN_NAME(obs_sh_,        \
                                                       __LINE__)(name); \
  ::hwprof::obs::ScopedSpan OBS_SPAN_NAME(obs_ss_, __LINE__)(          \
      OBS_SPAN_NAME(obs_sh_, __LINE__))

#define OBS_SPAN_BEGIN(tok) \
  const std::uint64_t obs_span_##tok = ::hwprof::obs::SpanClock()

#define OBS_SPAN_END(tok, name)                                            \
  do {                                                                     \
    if (obs_span_##tok != 0)                                               \
      OBS_HIST_NS(name, ::hwprof::obs::MonotonicNowNs() - obs_span_##tok); \
  } while (0)

#endif  // HWPROF_SRC_OBS_TELEMETRY_H_
