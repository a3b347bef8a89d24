#include "src/obs/telemetry.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>

#include "src/base/assert.h"
#include "src/base/strings.h"

namespace hwprof {
namespace obs {

namespace {

// Shared atomic kill-switch; relaxed loads keep the disabled path to a
// single uncontended read.
std::atomic<bool> g_enabled{true};

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

const std::array<std::uint64_t, kHistogramBuckets - 1>& HistogramBoundsNs() {
  // 1us .. 1s in a 1/2/5 ladder; the 20th bucket catches everything above.
  static const std::array<std::uint64_t, kHistogramBuckets - 1> kBounds = {
      1000ull,      2000ull,      5000ull,      10000ull,    20000ull,
      50000ull,     100000ull,    200000ull,    500000ull,   1000000ull,
      2000000ull,   5000000ull,   10000000ull,  20000000ull, 50000000ull,
      100000000ull, 200000000ull, 500000000ull, 1000000000ull};
  return kBounds;
}

std::size_t HistogramBucket(std::uint64_t ns) {
  const auto& bounds = HistogramBoundsNs();
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), ns) - bounds.begin());
}

bool Enabled() {
#if defined(HWPROF_NO_TELEMETRY)
  return false;
#else
  return g_enabled.load(std::memory_order_relaxed);
#endif
}

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t MonotonicNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t SpanClock() { return Enabled() ? MonotonicNowNs() : 0; }

const MetricValue* Snapshot::Find(const std::string& name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::uint64_t Snapshot::CounterValue(const std::string& name) const {
  const MetricValue* m = Find(name);
  return (m != nullptr && m->kind == MetricKind::kCounter) ? m->count : 0;
}

namespace {

std::string FormatUsec(std::uint64_t ns) {
  // Integer microseconds with a fixed .3 fraction keeps output byte-stable.
  return StrFormat("%llu.%03lluus",
                   static_cast<unsigned long long>(ns / 1000),
                   static_cast<unsigned long long>(ns % 1000));
}

}  // namespace

std::string Snapshot::FormatText(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out;
  for (const MetricValue& m : metrics) {
    out += pad;
    out += StrFormat("%-9s %-40s", MetricKindName(m.kind), m.name.c_str());
    switch (m.kind) {
      case MetricKind::kCounter:
        out += StrFormat(" %llu", static_cast<unsigned long long>(m.count));
        break;
      case MetricKind::kGauge:
        out += StrFormat(" %lld (peak %lld)", static_cast<long long>(m.value),
                         static_cast<long long>(m.peak));
        break;
      case MetricKind::kHistogram:
        if (m.count == 0) {
          out += " n=0";
        } else {
          out += StrFormat(" n=%llu sum=%s min=%s avg=%s max=%s",
                           static_cast<unsigned long long>(m.count),
                           FormatUsec(m.sum_ns).c_str(),
                           FormatUsec(m.min_ns).c_str(),
                           FormatUsec(m.sum_ns / m.count).c_str(),
                           FormatUsec(m.max_ns).c_str());
        }
        break;
    }
    out += "\n";
  }
  if (metrics.empty()) {
    out += pad;
    out += "(no metrics recorded)\n";
  }
  return out;
}

std::string Snapshot::FormatJson() const {
  std::string out = "[";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("{\"name\":\"%s\",\"kind\":\"%s\"", m.name.c_str(),
                     MetricKindName(m.kind));
    switch (m.kind) {
      case MetricKind::kCounter:
        out += StrFormat(",\"count\":%llu",
                         static_cast<unsigned long long>(m.count));
        break;
      case MetricKind::kGauge:
        out += StrFormat(",\"value\":%lld,\"peak\":%lld",
                         static_cast<long long>(m.value),
                         static_cast<long long>(m.peak));
        break;
      case MetricKind::kHistogram: {
        out += StrFormat(
            ",\"count\":%llu,\"sum_ns\":%llu,\"min_ns\":%llu,\"max_ns\":%llu",
            static_cast<unsigned long long>(m.count),
            static_cast<unsigned long long>(m.sum_ns),
            static_cast<unsigned long long>(m.count == 0 ? 0 : m.min_ns),
            static_cast<unsigned long long>(m.max_ns));
        out += ",\"buckets\":[";
        for (int b = 0; b < kHistogramBuckets; ++b) {
          if (b != 0) out += ",";
          out += std::to_string(m.buckets[static_cast<std::size_t>(b)]);
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "]";
  return out;
}

#if !defined(HWPROF_NO_TELEMETRY)

namespace internal {
namespace {

struct Metric {
  explicit Metric(MetricKind k) : kind(k) {}
  MetricKind kind;
  Cell cell;
};

// Keyed by name, so a walk visits the metrics in snapshot order; map nodes
// never move, so the cells handed out by Intern stay valid.
struct Registry {
  std::mutex mu;
  std::map<std::string, Metric> metrics;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // leaked: outlives all threads
  return *r;
}

}  // namespace

Cell* Intern(const char* name, MetricKind kind) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  Metric& metric = r.metrics.try_emplace(name, kind).first->second;
  HWPROF_CHECK(metric.kind == kind);
  return &metric.cell;
}

}  // namespace internal

void Gauge::Add(std::int64_t delta) {
  if (!Enabled()) return;
  const std::int64_t now =
      cell_->value.fetch_add(delta, std::memory_order_relaxed) + delta;
  std::int64_t peak = cell_->peak.load(std::memory_order_relaxed);
  while (now > peak && !cell_->peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::RecordNs(std::uint64_t ns) {
  if (!Enabled()) return;
  internal::Cell& cell = *cell_;
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.sum.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = cell.min.load(std::memory_order_relaxed);
  while (ns < seen && !cell.min.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
  seen = cell.max.load(std::memory_order_relaxed);
  while (ns > seen && !cell.max.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
  cell.buckets[HistogramBucket(ns)].fetch_add(1, std::memory_order_relaxed);
}

Snapshot GlobalSnapshot() {
  internal::Registry& r = internal::GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  Snapshot snap;
  snap.metrics.reserve(r.metrics.size());
  for (const auto& [name, metric] : r.metrics) {
    const internal::Cell& cell = metric.cell;
    MetricValue m;
    m.name = name;
    m.kind = metric.kind;
    // Fields a kind does not use stay zero. An empty histogram's min holds
    // its sentinel, so histogram stats are read only once there is a sample.
    m.count = cell.count.load(std::memory_order_relaxed);
    m.value = cell.value.load(std::memory_order_relaxed);
    m.peak = cell.peak.load(std::memory_order_relaxed);
    if (m.kind == MetricKind::kHistogram && m.count != 0) {
      m.sum_ns = cell.sum.load(std::memory_order_relaxed);
      m.min_ns = cell.min.load(std::memory_order_relaxed);
      m.max_ns = cell.max.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < m.buckets.size(); ++b) {
        m.buckets[b] = cell.buckets[b].load(std::memory_order_relaxed);
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

void ResetTelemetry() {
  internal::Registry& r = internal::GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& entry : r.metrics) {
    internal::Cell& cell = entry.second.cell;
    cell.count.store(0, std::memory_order_relaxed);
    cell.value.store(0, std::memory_order_relaxed);
    cell.peak.store(0, std::memory_order_relaxed);
    cell.sum.store(0, std::memory_order_relaxed);
    cell.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    cell.max.store(0, std::memory_order_relaxed);
    for (auto& b : cell.buckets) b.store(0, std::memory_order_relaxed);
  }
}

#else  // HWPROF_NO_TELEMETRY

Snapshot GlobalSnapshot() { return Snapshot{}; }
void ResetTelemetry() {}

#endif  // HWPROF_NO_TELEMETRY

}  // namespace obs
}  // namespace hwprof
