#include "src/obs/telemetry.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
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

void Snapshot::Merge(const Snapshot& other) {
  for (const MetricValue& theirs : other.metrics) {
    MetricValue* mine = nullptr;
    for (MetricValue& m : metrics) {
      if (m.name == theirs.name) {
        mine = &m;
        break;
      }
    }
    if (mine == nullptr) {
      metrics.push_back(theirs);
      continue;
    }
    HWPROF_CHECK(mine->kind == theirs.kind);
    switch (theirs.kind) {
      case MetricKind::kCounter:
        mine->count += theirs.count;
        break;
      case MetricKind::kGauge:
        mine->value += theirs.value;
        mine->peak = std::max(mine->peak, theirs.peak);
        break;
      case MetricKind::kHistogram:
        if (theirs.count == 0) break;
        mine->min_ns = mine->count == 0 ? theirs.min_ns
                                        : std::min(mine->min_ns, theirs.min_ns);
        mine->max_ns = std::max(mine->max_ns, theirs.max_ns);
        mine->count += theirs.count;
        mine->sum_ns += theirs.sum_ns;
        for (int b = 0; b < kHistogramBuckets; ++b) {
          mine->buckets[static_cast<std::size_t>(b)] +=
              theirs.buckets[static_cast<std::size_t>(b)];
        }
        break;
    }
  }
  std::sort(metrics.begin(), metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
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

struct GaugeCell {
  std::atomic<std::int64_t> value{0};
  std::atomic<std::int64_t> peak{0};
};

namespace {

constexpr int kMaxMetrics = 256;

// Per-thread storage: a flat counter array plus lazily allocated histogram
// cells. Only the owning thread writes; snapshots read concurrently with
// acquire loads on the cell pointers.
struct ThreadSink {
  std::array<std::atomic<std::uint64_t>, kMaxMetrics> counters{};
  std::array<std::atomic<HistCell*>, kMaxMetrics> hists{};

  ~ThreadSink() {
    for (auto& h : hists) delete h.load(std::memory_order_relaxed);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::string> names;
  std::vector<MetricKind> kinds;
  std::map<std::string, int> by_name;
  std::vector<std::unique_ptr<ThreadSink>> sinks;
  std::vector<std::unique_ptr<GaugeCell>> gauges;  // indexed by id; null
                                                   // unless kind == gauge
};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // leaked: outlives all threads
  return *r;
}

thread_local ThreadSink* t_sink = nullptr;

ThreadSink& Sink() {
  if (t_sink == nullptr) {
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.sinks.push_back(std::make_unique<ThreadSink>());
    t_sink = r.sinks.back().get();
  }
  return *t_sink;
}

}  // namespace

int Intern(const char* name, MetricKind kind) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.by_name.find(name);
  if (it != r.by_name.end()) {
    HWPROF_CHECK(r.kinds[static_cast<std::size_t>(it->second)] == kind);
    return it->second;
  }
  const int id = static_cast<int>(r.names.size());
  HWPROF_CHECK(id < kMaxMetrics);
  r.names.emplace_back(name);
  r.kinds.push_back(kind);
  r.gauges.push_back(kind == MetricKind::kGauge ? std::make_unique<GaugeCell>()
                                                : nullptr);
  r.by_name.emplace(name, id);
  return id;
}

std::atomic<std::uint64_t>& CounterCell(int id) {
  return Sink().counters[static_cast<std::size_t>(id)];
}

HistCell& HistogramCell(int id) {
  auto& slot = Sink().hists[static_cast<std::size_t>(id)];
  HistCell* cell = slot.load(std::memory_order_relaxed);
  if (cell == nullptr) {
    cell = new HistCell();
    slot.store(cell, std::memory_order_release);
  }
  return *cell;
}

GaugeCell* GaugeCellPtr(int id) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  GaugeCell* cell = r.gauges[static_cast<std::size_t>(id)].get();
  HWPROF_CHECK(cell != nullptr);
  return cell;
}

void GaugeAdd(GaugeCell* cell, std::int64_t delta) {
  const std::int64_t now =
      cell->value.fetch_add(delta, std::memory_order_relaxed) + delta;
  std::int64_t peak = cell->peak.load(std::memory_order_relaxed);
  while (now > peak && !cell->peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

}  // namespace internal

void LatencyHistogram::RecordNs(std::uint64_t ns) {
  if (!Enabled()) return;
  internal::HistCell& cell = internal::HistogramCell(id_);
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
  snap.metrics.reserve(r.names.size());
  for (std::size_t id = 0; id < r.names.size(); ++id) {
    MetricValue m;
    m.name = r.names[id];
    m.kind = r.kinds[id];
    switch (m.kind) {
      case MetricKind::kCounter:
        for (const auto& sink : r.sinks) {
          m.count += sink->counters[id].load(std::memory_order_relaxed);
        }
        break;
      case MetricKind::kGauge: {
        const internal::GaugeCell* cell = r.gauges[id].get();
        m.value = cell->value.load(std::memory_order_relaxed);
        m.peak = cell->peak.load(std::memory_order_relaxed);
        break;
      }
      case MetricKind::kHistogram:
        for (const auto& sink : r.sinks) {
          const internal::HistCell* cell =
              sink->hists[id].load(std::memory_order_acquire);
          if (cell == nullptr) continue;
          const std::uint64_t n = cell->count.load(std::memory_order_relaxed);
          if (n == 0) continue;
          const std::uint64_t lo = cell->min.load(std::memory_order_relaxed);
          m.min_ns = m.count == 0 ? lo : std::min(m.min_ns, lo);
          m.max_ns = std::max(m.max_ns,
                              cell->max.load(std::memory_order_relaxed));
          m.count += n;
          m.sum_ns += cell->sum.load(std::memory_order_relaxed);
          for (int b = 0; b < kHistogramBuckets; ++b) {
            m.buckets[static_cast<std::size_t>(b)] +=
                cell->buckets[static_cast<std::size_t>(b)].load(
                    std::memory_order_relaxed);
          }
        }
        break;
    }
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

void ResetTelemetry() {
  internal::Registry& r = internal::GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& sink : r.sinks) {
    for (auto& c : sink->counters) c.store(0, std::memory_order_relaxed);
    for (auto& slot : sink->hists) {
      internal::HistCell* cell = slot.load(std::memory_order_relaxed);
      if (cell == nullptr) continue;
      cell->count.store(0, std::memory_order_relaxed);
      cell->sum.store(0, std::memory_order_relaxed);
      cell->min.store(~std::uint64_t{0}, std::memory_order_relaxed);
      cell->max.store(0, std::memory_order_relaxed);
      for (auto& b : cell->buckets) b.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& g : r.gauges) {
    if (g == nullptr) continue;
    g->value.store(0, std::memory_order_relaxed);
    g->peak.store(0, std::memory_order_relaxed);
  }
}

#else  // HWPROF_NO_TELEMETRY

Snapshot GlobalSnapshot() { return Snapshot{}; }
void ResetTelemetry() {}

#endif  // HWPROF_NO_TELEMETRY

}  // namespace obs
}  // namespace hwprof
