#include "src/service/ingest.h"

#include <algorithm>

#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"
#include "src/profhw/capture_reader.h"

namespace hwprof {
namespace service {

namespace {

// Records one magnitude sample into a hand-built ladder MetricValue (the
// deterministic self-snapshot's histograms reuse the 1/2/5 ns ladder as a
// generic magnitude ladder).
void LadderRecord(obs::MetricValue* m, std::uint64_t v) {
  m->min_ns = m->count == 0 ? v : std::min(m->min_ns, v);
  m->max_ns = std::max(m->max_ns, v);
  ++m->count;
  m->sum_ns += v;
  ++m->buckets[obs::HistogramBucket(v)];
}

}  // namespace

TenantCounters& TenantCounters::operator+=(const TenantCounters& other) {
  offered += other.offered;
  accepted += other.accepted;
  offered_bytes += other.offered_bytes;
  accepted_bytes += other.accepted_bytes;
  dropped_bytes += other.dropped_bytes;
  for (int i = 0; i < kDropReasonCount; ++i) {
    dropped[i] += other.dropped[i];
  }
  summaries += other.summaries;
  malformed += other.malformed;
  cache_hits += other.cache_hits;
  decoded_events += other.decoded_events;
  anomalies += other.anomalies;
  last_ingest_id = std::max(last_ingest_id, other.last_ingest_id);
  return *this;
}

const char* DropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::kNone:
      return "none";
    case DropReason::kEmpty:
      return "empty";
    case DropReason::kOversize:
      return "oversize";
    case DropReason::kQueueFull:
      return "queue_full";
    case DropReason::kDraining:
      return "draining";
  }
  return "unknown";
}

const char* HealthName(Health health) {
  switch (health) {
    case Health::kReady:
      return "ready";
    case Health::kDegraded:
      return "degraded";
    case Health::kDraining:
      return "draining";
  }
  return "unknown";
}

std::uint64_t IngestService::HashPayload(std::string_view payload) {
  // FNV-1a 64.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

IngestService::IngestService(const TagFile& names, ServiceOptions options)
    : names_(names),
      options_(std::move(options)),
      clock_(options_.clock ? options_.clock : [] { return obs::MonotonicNowNs(); }),
      event_log_(options_.event_log_capacity),
      timeseries_(kTimeseriesCapacity) {
  start_t_ns_ = clock_();
  upload_bytes_ladder_.name = "svc.upload_bytes";
  upload_bytes_ladder_.kind = obs::MetricKind::kHistogram;
  upload_events_ladder_.name = "svc.upload_events";
  upload_events_ladder_.kind = obs::MetricKind::kHistogram;
  const unsigned workers = options_.workers;
  shards_.resize(workers == 0 ? 1 : workers);
  event_log_.Append(start_t_ns_, 0, "", "service",
                    StrFormat("start workers=%u", workers));
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

IngestService::~IngestService() { Stop(); }

unsigned IngestService::workers() const { return options_.workers; }

SubmitResult IngestService::Submit(const std::string& tenant,
                                   std::string payload) {
  const SubmitResult result = Admit(tenant, payload.size(), &payload);
  if (result.accepted) {
    if (options_.workers == 0) {
      Process(QueueItem{result.ingest_id, tenant, std::move(payload)});
    } else {
      work_cv_.notify_all();
    }
  }
  return result;
}

SubmitResult IngestService::RejectOversize(const std::string& tenant,
                                           std::uint64_t declared_bytes) {
  return Admit(tenant, declared_bytes, /*payload=*/nullptr);
}

SubmitResult IngestService::Admit(const std::string& tenant,
                                  std::uint64_t bytes, std::string* payload) {
  std::lock_guard<std::mutex> lock(mu_);
  SubmitResult result;
  result.ingest_id = next_ingest_id_++;
  TenantCounters& tc = tenants_[tenant];
  ++tc.offered;
  tc.offered_bytes += bytes;
  tc.last_ingest_id = result.ingest_id;

  const std::size_t shard_index =
      static_cast<std::size_t>(HashPayload(tenant) % shards_.size());
  if (draining_) {
    result.reason = DropReason::kDraining;
  } else if (bytes == 0) {
    result.reason = DropReason::kEmpty;
  } else if (payload == nullptr || bytes > options_.max_upload_bytes) {
    result.reason = DropReason::kOversize;
  } else if (options_.workers > 0 &&
             (shards_[shard_index].queue.size() >= options_.queue_max_depth ||
              queue_bytes_ + bytes > options_.queue_max_bytes)) {
    result.reason = DropReason::kQueueFull;
  }
  if (result.reason != DropReason::kNone) {
    ++tc.dropped[static_cast<std::size_t>(result.reason)];
    tc.dropped_bytes += bytes;
    event_log_.Append(clock_(), result.ingest_id, tenant, "capture",
                      StrFormat("drop reason=%s bytes=%llu",
                                DropReasonName(result.reason),
                                static_cast<unsigned long long>(bytes)));
    return result;
  }

  result.accepted = true;
  ++tc.accepted;
  tc.accepted_bytes += bytes;
  LadderRecord(&upload_bytes_ladder_, bytes);
  event_log_.Append(clock_(), result.ingest_id, tenant, "capture",
                    StrFormat("accept bytes=%llu shard=%zu",
                              static_cast<unsigned long long>(bytes),
                              shard_index));
  if (options_.workers > 0) {
    ++in_flight_;
    queue_bytes_ += bytes;
    peak_queue_bytes_ = std::max(peak_queue_bytes_, queue_bytes_);
    shards_[shard_index].queue.push_back(
        QueueItem{result.ingest_id, tenant, std::move(*payload)});
  }
  return result;
}

void IngestService::WorkerLoop(std::size_t shard_index) {
  for (;;) {
    QueueItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      Shard& shard = shards_[shard_index];
      work_cv_.wait(lock, [&] { return stopping_ || !shard.queue.empty(); });
      if (shard.queue.empty()) {
        return;  // stopping_ and drained
      }
      item = std::move(shard.queue.front());
      shard.queue.pop_front();
      queue_bytes_ -= item.payload.size();
    }
    Process(item);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

void IngestService::Process(const QueueItem& item) {
  const std::uint64_t hash = HashPayload(item.payload);
  UploadOutcome cached;
  if (LookupOutcome(hash, &cached)) {
    FinishUpload(item, cached, /*malformed=*/false, /*cache_hit=*/true);
    return;
  }
  bool malformed = false;
  UploadOutcome outcome = DecodePayload(item.payload, &malformed);
  outcome.hash = hash;
  FinishUpload(item, outcome, malformed, /*cache_hit=*/false);
}

UploadOutcome IngestService::DecodePayload(const std::string& payload,
                                           bool* malformed) const {
  UploadOutcome out;
  *malformed = false;
  OBS_SCOPED_SPAN("service.decode");
  // Strict, like the offline loader without --salvage: damaged uploads and
  // streams are typed as malformed rather than partially digested.
  CaptureReader reader(payload, /*salvage=*/false);
  if (!reader.ExpectKind(/*stream=*/false)) {
    *malformed = true;
    return out;
  }
  const DecodedTrace decoded =
      StreamingDecoder(names_, reader.timer_bits(), reader.timer_clock_hz(),
                       StreamingOptions{.retain_structure = false})
          .DecodeAll(reader);
  if (reader.failed()) {
    *malformed = true;
    return out;
  }
  out.summary = Summary(decoded).Format(options_.summary_rows);
  out.events = decoded.event_count;
  out.anomalies = decoded.AnomalyTotal();
  return out;
}

void IngestService::FinishUpload(const QueueItem& item,
                                 const UploadOutcome& outcome, bool malformed,
                                 bool cache_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantCounters& tc = tenants_[item.tenant];
  if (malformed) {
    ++tc.malformed;
    event_log_.Append(clock_(), item.ingest_id, item.tenant, "decode",
                      "malformed payload");
    return;
  }
  if (cache_hit) {
    ++tc.cache_hits;
  }
  tc.decoded_events += outcome.events;
  tc.anomalies += outcome.anomalies;
  LadderRecord(&upload_events_ladder_, outcome.events);
  event_log_.Append(
      clock_(), item.ingest_id, item.tenant, "decode",
      StrFormat("events=%llu anomalies=%llu cache=%s",
                static_cast<unsigned long long>(outcome.events),
                static_cast<unsigned long long>(outcome.anomalies),
                cache_hit ? "hit" : "miss"));
  ++tc.summaries;
  event_log_.Append(
      clock_(), item.ingest_id, item.tenant, "summary",
      StrFormat("bytes=%zu hash=%016llx", outcome.summary.size(),
                static_cast<unsigned long long>(outcome.hash)));
  if (!cache_hit) {
    // Insert (or refresh) under LRU eviction.
    auto it = cache_.find(outcome.hash);
    if (it == cache_.end() && options_.cache_capacity > 0) {
      cache_.emplace(outcome.hash, outcome);
      cache_pos_[outcome.hash] =
          cache_lru_.insert(cache_lru_.end(), outcome.hash);
      while (cache_.size() > options_.cache_capacity) {
        const std::uint64_t oldest = cache_lru_.front();
        cache_.erase(oldest);
        cache_pos_.erase(oldest);
        cache_lru_.pop_front();
      }
    }
  } else {
    // Touch: splice the node to the back of the recency list, O(1).
    const auto pos = cache_pos_.find(outcome.hash);
    if (pos != cache_pos_.end()) {
      cache_lru_.splice(cache_lru_.end(), cache_lru_, pos->second);
    }
  }
}

bool IngestService::LookupOutcome(std::uint64_t payload_hash,
                                  UploadOutcome* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_.find(payload_hash);
  if (it == cache_.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

void IngestService::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void IngestService::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!draining_) {
    draining_ = true;
    event_log_.Append(clock_(), 0, "", "service", "drain");
  }
}

void IngestService::Stop() {
  BeginDrain();
  WaitIdle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    event_log_.Append(clock_(), 0, "", "service", "stop");
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  threads_.clear();
}

std::uint64_t IngestService::Tick() {
  obs::Snapshot snap = SelfSnapshot();
  const std::uint64_t t = clock_();
  timeseries_.Record(t, std::move(snap));
  return t;
}

ServiceStats IngestService::StatsLocked() const {
  ServiceStats out;
  for (const auto& [name, tc] : tenants_) {
    out += tc;
  }
  for (const Shard& s : shards_) {
    out.queue_depth += s.queue.size();
  }
  out.queue_bytes = queue_bytes_;
  out.peak_queue_bytes = peak_queue_bytes_;
  out.cache_entries = cache_.size();
  out.tenants = tenants_;
  return out;
}

ServiceStats IngestService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsLocked();
}

Health IngestService::HealthLocked(const ServiceStats& stats) const {
  if (draining_) {
    return Health::kDraining;
  }
  if (stats.DroppedTotal() > 0 || stats.malformed > 0) {
    return Health::kDegraded;
  }
  return Health::kReady;
}

Health IngestService::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return HealthLocked(StatsLocked());
}

std::string IngestService::HealthDetail() const {
  std::lock_guard<std::mutex> lock(mu_);
  const ServiceStats s = StatsLocked();
  switch (HealthLocked(s)) {
    case Health::kDraining:
      return StrFormat("queued=%zu in_flight=%zu", s.queue_depth, in_flight_);
    case Health::kDegraded:
      return StrFormat("drops=%llu malformed=%llu",
                       static_cast<unsigned long long>(s.DroppedTotal()),
                       static_cast<unsigned long long>(s.malformed));
    case Health::kReady:
      break;
  }
  return "ok";
}

obs::Snapshot IngestService::SelfSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const ServiceStats s = StatsLocked();
  obs::Snapshot snap;
  auto counter = [&](const char* name, std::uint64_t v) {
    obs::MetricValue m;
    m.name = name;
    m.kind = obs::MetricKind::kCounter;
    m.count = v;
    snap.metrics.push_back(std::move(m));
  };
  counter("svc.offered", s.offered);
  counter("svc.accepted", s.accepted);
  counter("svc.offered_bytes", s.offered_bytes);
  counter("svc.accepted_bytes", s.accepted_bytes);
  counter("svc.dropped_bytes", s.dropped_bytes);
  counter("svc.drop.empty",
          s.dropped[static_cast<std::size_t>(DropReason::kEmpty)]);
  counter("svc.drop.oversize",
          s.dropped[static_cast<std::size_t>(DropReason::kOversize)]);
  counter("svc.drop.queue_full",
          s.dropped[static_cast<std::size_t>(DropReason::kQueueFull)]);
  counter("svc.drop.draining",
          s.dropped[static_cast<std::size_t>(DropReason::kDraining)]);
  counter("svc.summaries", s.summaries);
  counter("svc.malformed", s.malformed);
  counter("svc.cache_hits", s.cache_hits);
  counter("svc.decoded_events", s.decoded_events);
  counter("svc.anomalies", s.anomalies);
  counter("svc.tenants", s.tenants.size());

  obs::MetricValue depth;
  depth.name = "svc.queue_depth";
  depth.kind = obs::MetricKind::kGauge;
  depth.value = static_cast<std::int64_t>(s.queue_depth);
  depth.peak = static_cast<std::int64_t>(options_.queue_max_depth);
  snap.metrics.push_back(std::move(depth));

  obs::MetricValue qbytes;
  qbytes.name = "svc.queue_bytes";
  qbytes.kind = obs::MetricKind::kGauge;
  qbytes.value = static_cast<std::int64_t>(s.queue_bytes);
  qbytes.peak = static_cast<std::int64_t>(s.peak_queue_bytes);
  snap.metrics.push_back(std::move(qbytes));

  snap.metrics.push_back(upload_bytes_ladder_);
  snap.metrics.push_back(upload_events_ladder_);

  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const obs::MetricValue& a, const obs::MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

}  // namespace service
}  // namespace hwprof
