// hwprofd's core: a long-running multi-tenant ingest service wrapping the
// analysis engine behind a real service boundary (DESIGN.md §14).
//
// Simulated machines upload whole capture payloads (either interchange —
// the text upload format or the hwpb binary container, sniffed per upload).
// Submit() is the service boundary: it assigns an ingest ID, applies
// admission control in a fixed order (drain state, empty payload, size cap,
// per-shard queue depth and global queue bytes) and either queues the
// payload on its tenant's shard or rejects it with a *typed* drop reason.
// RejectOversize() (a declared size, no payload) takes the same path.
// Nothing is ever dropped silently:
//
//     offered == accepted + sum(typed submit drops)          (uploads & bytes)
//     accepted == summaries + malformed                      (after WaitIdle)
//
// extending the PR-4 principle — every loss lands in a named counter — from
// decode anomalies to the service edge.
//
// Shard workers reuse the StreamingDecoder as a library (bounded memory:
// retain_structure=false folds finished calls as the stream advances) and
// render the same Figure-3 summary `hwprof_analyze` prints, so a tenant's
// summary is byte-identical to an offline decode of the same capture — the
// soak test's core assertion. Decoded summaries are cached by payload hash
// (FNV-1a 64): a re-uploaded capture is served from cache without decoding.
//
// One ledger: each upload outcome is booked once, in its tenant's
// TenantCounters row. Stats() totals are sums of those rows, and STATUS,
// TENANTS, HEALTH and the svc.* self-snapshot are all derived from one
// locked read of them; there is no second set of counters to reconcile.
//
// Observability plane:
//   * a deterministic self-snapshot (svc.* counters derived from the ledger
//     plus two magnitude-ladder histograms, no wall-clock latencies)
//     recorded into a TimeSeriesStore of kTimeseriesCapacity samples by
//     Tick() — the METRICS ops command derives rates and ladder percentiles
//     from it,
//   * a structured EventLog: every upload logs capture -> decode -> summary
//     stages under its ingest ID.
//
// The clock is injected (ServiceOptions::clock) so ops responses are
// byte-deterministic under a frozen clock — the committed goldens rely on
// it. workers=0 runs every upload synchronously inside Submit(), which the
// goldens also use to fix event ordering.

#ifndef HWPROF_SRC_SERVICE_INGEST_H_
#define HWPROF_SRC_SERVICE_INGEST_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/instr/tag_file.h"
#include "src/obs/timeseries.h"
#include "src/service/event_log.h"

namespace hwprof {
namespace service {

// Typed submit-time drop reasons (worker-time parse failures are counted
// separately as `malformed` — the payload was admitted, then found rotten).
enum class DropReason {
  kNone = 0,
  kEmpty,      // zero-byte payload
  kOversize,   // payload larger than max_upload_bytes
  kQueueFull,  // shard depth or global byte budget exhausted (backpressure)
  kDraining,   // service is draining or stopped
};
const char* DropReasonName(DropReason reason);
inline constexpr int kDropReasonCount = 5;  // including kNone

enum class Health { kReady, kDegraded, kDraining };
const char* HealthName(Health health);

struct SubmitResult {
  bool accepted = false;
  std::uint64_t ingest_id = 0;  // assigned even for drops (the drop is logged)
  DropReason reason = DropReason::kNone;
};

struct ServiceOptions {
  // Decode worker threads; tenants are sharded across them by name hash.
  // 0 = synchronous: Submit() decodes inline (deterministic ordering).
  unsigned workers = 2;
  // Admission control.
  std::size_t max_upload_bytes = 4u << 20;
  std::size_t queue_max_depth = 64;            // per shard
  std::size_t queue_max_bytes = 16u << 20;     // across all shards
  // Decoded-summary cache (entries; LRU by insertion/use order).
  std::size_t cache_capacity = 256;
  // Figure-3 summary rows retained per upload (0 = all rows).
  std::size_t summary_rows = 0;
  // Observability plane sizing.
  std::size_t event_log_capacity = 1024;
  // Service clock in ns; defaults to obs::MonotonicNowNs. Tests freeze it.
  std::function<std::uint64_t()> clock;
};

// Self-snapshots the METRICS window can reach back over.
inline constexpr std::size_t kTimeseriesCapacity = 120;

// Per-tenant accounting, all monotone counters: the service's one ledger.
struct TenantCounters {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t accepted_bytes = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t dropped[kDropReasonCount] = {};  // by submit DropReason
  std::uint64_t summaries = 0;
  std::uint64_t malformed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t decoded_events = 0;
  std::uint64_t anomalies = 0;
  std::uint64_t last_ingest_id = 0;

  std::uint64_t DroppedTotal() const {
    std::uint64_t n = 0;
    for (const std::uint64_t d : dropped) n += d;
    return n;
  }

  // Adds every counter of `other`; last_ingest_id takes the newer one.
  TenantCounters& operator+=(const TenantCounters& other);
};

// A stable copy of the whole service's accounting: the inherited counters
// are the sum of the tenant rows, plus the queue and cache levels.
struct ServiceStats : TenantCounters {
  std::size_t queue_depth = 0;
  std::size_t queue_bytes = 0;
  std::size_t peak_queue_bytes = 0;
  std::size_t cache_entries = 0;
  std::map<std::string, TenantCounters> tenants;  // name-sorted
};

// What a worker remembers about one decoded capture (also the cache value).
struct UploadOutcome {
  std::string summary;           // Summary(decoded).Format(summary_rows)
  std::uint64_t events = 0;      // decoded.event_count
  std::uint64_t anomalies = 0;   // the HasAnomalies() counter total
  std::uint64_t hash = 0;        // FNV-1a 64 of the payload
};

class IngestService {
 public:
  // `names` must outlive the service (decoders point into it).
  IngestService(const TagFile& names, ServiceOptions options);
  ~IngestService();
  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  // The service boundary. Thread-safe; returns immediately (workers > 0)
  // or after the decode (workers == 0).
  SubmitResult Submit(const std::string& tenant, std::string payload);

  // Admits an upload by its *declared* size alone, which is always a typed
  // drop: kOversize, or kDraining once drain has begun (the same checks, in
  // the same order, as Submit). The socket layer calls this when a header
  // declares more than max_upload_bytes, before reading the body, so a lying
  // or huge UPLOAD header cannot drive an allocation; the drop lands in the
  // same ledger and event log as a Submit()-time drop.
  SubmitResult RejectOversize(const std::string& tenant,
                              std::uint64_t declared_bytes);

  std::size_t max_upload_bytes() const { return options_.max_upload_bytes; }

  // Blocks until every accepted upload has been processed.
  void WaitIdle();

  // Stops admitting (new Submits are typed kDraining drops), lets workers
  // finish what is queued. Idempotent.
  void BeginDrain();

  // BeginDrain + WaitIdle + join the workers. Idempotent; the destructor
  // calls it.
  void Stop();

  // Records one svc.* self-snapshot into the time-series store at clock().
  // Returns the sample timestamp.
  std::uint64_t Tick();

  Health health() const;
  // One word of explanation for HEALTH ("ok", "drops=N malformed=M", ...).
  std::string HealthDetail() const;

  ServiceStats Stats() const;
  const obs::TimeSeriesStore& timeseries() const { return timeseries_; }
  const EventLog& event_log() const { return event_log_; }
  std::uint64_t start_t_ns() const { return start_t_ns_; }
  std::uint64_t NowNs() const { return clock_(); }
  unsigned workers() const;

  // Deterministic self-snapshot of the service's own counters (what Tick
  // records): svc.* counters, gauges and magnitude-ladder histograms, no
  // wall-clock latencies.
  obs::Snapshot SelfSnapshot() const;

  // Cache lookup by payload hash; empty summary when absent. Tests use this
  // to compare against offline decodes.
  bool LookupOutcome(std::uint64_t payload_hash, UploadOutcome* out) const;

  static std::uint64_t HashPayload(std::string_view payload);

 private:
  struct QueueItem {
    std::uint64_t ingest_id = 0;
    std::string tenant;
    std::string payload;
  };
  struct Shard {
    std::deque<QueueItem> queue;
  };

  // The one admission path behind Submit and RejectOversize: assigns the
  // ingest ID, applies the admission checks in order, books the outcome in
  // the tenant's ledger row and logs it. A null `payload` is a declared size
  // with no body, which the size check always refuses. An accepted payload
  // is moved onto its shard's queue when workers > 0.
  SubmitResult Admit(const std::string& tenant, std::uint64_t bytes,
                     std::string* payload);
  // The totals, levels and tenant rows; caller holds mu_.
  ServiceStats StatsLocked() const;
  Health HealthLocked(const ServiceStats& stats) const;
  void WorkerLoop(std::size_t shard_index);
  void Process(const QueueItem& item);
  UploadOutcome DecodePayload(const std::string& payload, bool* malformed) const;
  void FinishUpload(const QueueItem& item, const UploadOutcome& outcome,
                    bool malformed, bool cache_hit);

  const TagFile& names_;
  const ServiceOptions options_;
  std::function<std::uint64_t()> clock_;
  std::uint64_t start_t_ns_ = 0;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for queue items
  std::condition_variable idle_cv_;   // WaitIdle waits for in-flight == 0
  bool draining_ = false;
  bool stopping_ = false;
  std::uint64_t next_ingest_id_ = 1;
  std::size_t in_flight_ = 0;  // queued + currently decoding
  std::size_t queue_bytes_ = 0;
  std::size_t peak_queue_bytes_ = 0;
  std::vector<Shard> shards_;
  std::vector<std::thread> threads_;

  // The ledger (guarded by mu_).
  std::map<std::string, TenantCounters> tenants_;
  // Magnitude-ladder samples for the deterministic self-snapshot.
  obs::MetricValue upload_bytes_ladder_;
  obs::MetricValue upload_events_ladder_;

  // Summary cache: hash -> outcome, LRU by recency list. cache_pos_ maps a
  // hash to its list node so a cache-hit touch is an O(1) splice rather
  // than a scan under the service-wide mutex.
  std::map<std::uint64_t, UploadOutcome> cache_;
  std::list<std::uint64_t> cache_lru_;  // front = oldest
  std::map<std::uint64_t, std::list<std::uint64_t>::iterator> cache_pos_;

  EventLog event_log_;
  obs::TimeSeriesStore timeseries_;
};

}  // namespace service
}  // namespace hwprof

#endif  // HWPROF_SRC_SERVICE_INGEST_H_
