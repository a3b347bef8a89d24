// ingest_fleet: an open loop of seeded Poisson uploads from one generator
// thread, over AF_UNIX (OpsUpload), to an in-process IngestService +
// OpsServer with `hwprofd serve` defaults (2 workers, cache 256, default
// queue caps) and 4 tenants.
//
// The payload pool holds kPoolSize distinct one-shot captures from
// net_receive, mixed, fork_exec and lookup, their parameters and KernConfig
// knobs drawn from the seed. The pool is larger than the summary cache, so
// uniform choice makes a little under half the uploads cache hits and the
// median upload a miss (a real decode).
//
// Phases, in order: cache warm-up, fixed rates 250/s and 500/s (the only
// phases error_rate covers), and a bisection for the highest rate that
// keeps zero queue_full drops, no growing backlog and p99 <= 50 ms.
//
// Each upload is timed from its scheduled send time to the `summary` stage
// of its ingest ID in the service event log, stamped by the service clock
// the benchmark supplies (ServiceOptions::clock = NowNs). Those latencies
// and the bisected rate are reported per layer: on a virtual machine they
// follow the host's vCPU wake-up latency more than the service's code (see
// README.md). The end-to-end throughput is the service's own CPU cost:
// capture events summarized per CPU-second the service used (process CPU
// minus the generator thread's) during the fixed-rate phases.

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "bench_workloads.h"
#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/base/rng.h"
#include "src/profhw/binary_trace.h"
#include "src/service/ingest.h"
#include "src/service/ops_socket.h"
#include "src/workloads/workloads.h"

namespace hwbench {
namespace {

namespace svc = hwprof::service;

constexpr std::size_t kPoolSize = 640;
constexpr int kTenants = 4;
constexpr double kLatencyLimitMs = 50.0;
// Latency recorded for an upload that was refused or never summarized: it
// misses any limit.
constexpr double kMissedMs = std::numeric_limits<double>::infinity();
// Event-log ring size: one phase's capture/decode/summary events must fit
// between two reads (the serve default of 1024 holds ~340 uploads).
constexpr std::size_t kEventLogCapacity = 1u << 17;
constexpr const char* kSocketName = "hwprofd.sock";

struct Payload {
  std::string bytes;
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
};

std::string TenantName(int i) { return "tenant-" + std::to_string(i); }

// One capture for the pool; the seed's draws choose the workload
// parameters and the kernel knobs.
Payload MakePayload(int kind, hwprof::Rng& rng, Tracer& tracer,
                    std::string* names_text) {
  std::unique_ptr<hwprof::Testbed> tb;
  {
    Tracer::Scope span(&tracer, "kern.testbed_build");
    hwprof::TestbedConfig config;
    config.kernel.rng_seed = rng.Next();
    config.kernel.knobs.cksum_unrolled = rng.NextBool(0.5);
    config.kernel.knobs.pmap_batch_pte = rng.NextBool(0.5);
    config.kernel.knobs.namei_cache = rng.NextBool(0.5);
    tb = std::make_unique<hwprof::Testbed>(config);
  }
  hwprof::RawTrace raw;
  {
    Tracer::Scope span(&tracer, "kern.sim");
    tb->Arm();
    switch (kind) {
      case 0:
        hwprof::RunNetworkReceive(*tb, hwprof::Msec(100),
                                  8 * 1024 * (1 + rng.NextBelow(8)), false);
        break;
      case 1:
        hwprof::RunMixed(*tb, hwprof::Msec(20 + static_cast<int>(rng.NextBelow(80))));
        break;
      case 2:
        hwprof::RunForkExec(*tb, 1 + static_cast<int>(rng.NextBelow(4)), hwprof::Sec(2));
        break;
      default:
        hwprof::RunLookupMix(*tb, 10 + static_cast<int>(rng.NextBelow(60)),
                             hwprof::Sec(2));
        break;
    }
    raw = tb->StopAndUpload();
  }
  Payload payload;
  {
    Tracer::Scope span(&tracer, "profhw.encode");
    payload.bytes = hwprof::EncodeCaptureBinary(raw);
  }
  payload.hash = svc::IngestService::HashPayload(payload.bytes);
  payload.events = raw.events.size();
  *names_text = tb->tags().Format();
  return payload;
}

struct Pool {
  std::vector<Payload> payloads;
  std::string names_text;
  bool names_identical = true;
  std::uint64_t events = 0;
};

Pool BuildPool(std::uint64_t seed, Tracer& tracer) {
  Pool pool;
  hwprof::Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  std::set<std::uint64_t> seen;
  // Round-robin over the four workloads; duplicate captures (same
  // parameters drawn twice) are skipped, with a bound on the attempts.
  for (std::size_t attempt = 0;
       pool.payloads.size() < kPoolSize && attempt < 4 * kPoolSize; ++attempt) {
    std::string names;
    Payload payload = MakePayload(static_cast<int>(attempt % 4), rng, tracer, &names);
    if (pool.names_text.empty()) {
      pool.names_text = names;
    }
    pool.names_identical = pool.names_identical && names == pool.names_text;
    if (seen.insert(payload.hash).second) {
      pool.events += payload.events;
      pool.payloads.push_back(std::move(payload));
    }
  }
  return pool;
}

// The service's decode of a payload, offline: the same engine settings as
// IngestService::DecodePayload and the same rendering.
bool OfflineDecode(const Payload& payload, const hwprof::TagFile& names,
                   Tracer& tracer, std::string* summary) {
  Tracer::Scope root(&tracer, "ingest.offline_decode");
  hwprof::BinaryChunkReader reader(payload.bytes, /*salvage=*/false);
  if (!reader.header_ok() || reader.kind() != hwprof::BinaryKind::kCapture) {
    return false;
  }
  hwprof::StreamingDecoder decoder(names, reader.timer_bits(), reader.timer_clock_hz(),
                                   hwprof::StreamingOptions{.retain_structure = false});
  decoder.NoteDropped(reader.dropped_events());
  decoder.SetClockEnvelope(static_cast<hwprof::Nanoseconds>(reader.capture_elapsed_ns()));
  hwprof::SoaChunk chunk;
  for (;;) {
    bool more = false;
    {
      Tracer::Scope span(&tracer, "profhw.read");
      more = reader.Next(&chunk);
    }
    if (!more) {
      break;
    }
    Tracer::Scope span(&tracer, "analysis.feed");
    if (chunk.dropped_before > 0) {
      decoder.NoteDropped(chunk.dropped_before);
    }
    decoder.FeedSoA(chunk.tags.data(), chunk.timestamps.data(), chunk.tags.size());
  }
  if (reader.failed()) {
    return false;
  }
  decoder.NoteCorruptWords(reader.corrupt_words());
  hwprof::DecodedTrace decoded;
  {
    Tracer::Scope span(&tracer, "analysis.finish");
    decoded = decoder.Finish(reader.overflowed());
  }
  std::unique_ptr<hwprof::Summary> s;
  {
    Tracer::Scope span(&tracer, "analysis.summary");
    s = std::make_unique<hwprof::Summary>(decoded);
  }
  Tracer::Scope span(&tracer, "analysis.format");
  *summary = s->Format(0);
  return true;
}

// The client-side record of one upload.
struct Sent {
  std::size_t payload = 0;
  int tenant = 0;
  std::uint64_t scheduled_ns = 0;
  std::uint64_t ingest_id = 0;
  bool accepted = false;
  std::string drop_reason;  // empty on a transport error
  double accept_us = 0.0;  // OpsUpload round trip
  double late_ms = 0.0;    // how late the generator sent it
};

struct PhaseResult {
  double rate = 0.0;
  std::vector<Sent> sent;
  // Per upload, joined with the event log.
  std::vector<double> latency_ms;  // scheduled -> summary; kMissedMs if none
  std::vector<double> in_service_ms;
  std::vector<double> miss_in_service_ms;
  std::vector<std::size_t> miss_payloads;
  std::uint64_t hits = 0;
  std::uint64_t summaries = 0;
  std::uint64_t unmatched = 0;  // accepted but no summary in the log
  std::uint64_t queue_full = 0;
  std::uint64_t failures = 0;   // drops, transport errors, unmatched
  std::uint64_t backlog_end = 0;  // accepted - summarized when sending stopped
  double service_cpu_ms = 0.0;    // process CPU minus the generator thread's
  std::uint64_t summarized_events = 0;

  double P(double p) const { return Percentile(latency_ms, p); }
};

class Fleet {
 public:
  Fleet(svc::IngestService& service, const Pool& pool, std::uint64_t seed,
        Tracer& tracer)
      : service_(service), pool_(pool), seed_(seed), rng_(seed), tracer_(tracer) {}

  // Offers Poisson arrivals at `rate` for `seconds` (open loop), then waits
  // for the service to go idle and joins each upload with its event-log
  // trail.
  PhaseResult OpenLoop(double rate, double seconds) {
    NextPhase();
    PhaseResult phase;
    phase.rate = rate;
    const double process_cpu_start = ProcessCpuMs();
    const double generator_cpu_start = ThreadCpuMs();
    const std::uint64_t start = NowNs();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    double next = static_cast<double>(start);
    for (;;) {
      next += rng_.NextExponential(1e9 / rate);
      if (next >= static_cast<double>(end)) {
        break;
      }
      const auto due = static_cast<std::uint64_t>(next);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      phase.sent.push_back(Upload(due));
    }
    const svc::ServiceStats stats = service_.Stats();
    phase.backlog_end = stats.accepted - stats.summaries - stats.malformed;
    service_.WaitIdle();
    phase.service_cpu_ms = (ProcessCpuMs() - process_cpu_start) -
                           (ThreadCpuMs() - generator_cpu_start);
    Join(&phase);
    return phase;
  }

 private:
  // Each phase draws from its own stream, so a phase's inputs do not depend
  // on how many uploads an earlier, timing-dependent phase made.
  void NextPhase() { rng_ = hwprof::Rng(seed_ * 1000003 + ++phase_); }

  Sent Upload(std::uint64_t due) {
    Sent s;
    s.payload = static_cast<std::size_t>(rng_.NextBelow(pool_.payloads.size()));
    s.tenant = static_cast<int>(rng_.NextBelow(kTenants));
    s.scheduled_ns = due;
    const std::uint64_t t0 = NowNs();
    s.late_ms = static_cast<double>(t0 - std::min(t0, due)) / 1e6;
    std::string error;
    {
      Tracer::Scope span(&tracer_, "service.upload");
      s.accepted = svc::OpsUpload(kSocketName, TenantName(s.tenant),
                                  pool_.payloads[s.payload].bytes, &s.ingest_id,
                                  &s.drop_reason, &error);
    }
    s.accept_us = static_cast<double>(NowNs() - t0) / 1e3;
    return s;
  }

  void Join(PhaseResult* phase) {
    struct Trail {
      std::uint64_t accept_ns = 0;
      std::uint64_t summary_ns = 0;
      bool hit = false;
    };
    std::map<std::uint64_t, Trail> trails;
    for (const svc::LogEvent& e : service_.event_log().Tail(0)) {
      if (e.ingest_id == 0) {
        continue;
      }
      Trail& t = trails[e.ingest_id];
      if (e.stage == "capture") {
        t.accept_ns = e.t_ns;
      } else if (e.stage == "decode") {
        t.hit = e.detail.find("cache=hit") != std::string::npos;
      } else if (e.stage == "summary") {
        t.summary_ns = e.t_ns;
      }
    }
    for (const Sent& s : phase->sent) {
      if (!s.accepted) {
        phase->queue_full += s.drop_reason == "queue_full" ? 1 : 0;
        ++phase->failures;
        phase->latency_ms.push_back(kMissedMs);
        continue;
      }
      const auto it = trails.find(s.ingest_id);
      if (it == trails.end() || it->second.summary_ns == 0) {
        ++phase->unmatched;
        ++phase->failures;
        phase->latency_ms.push_back(kMissedMs);
        continue;
      }
      const Trail& t = it->second;
      ++phase->summaries;
      phase->summarized_events += pool_.payloads[s.payload].events;
      phase->latency_ms.push_back(
          static_cast<double>(t.summary_ns - std::min(t.summary_ns, s.scheduled_ns)) / 1e6);
      const double in_service = static_cast<double>(t.summary_ns - t.accept_ns) / 1e6;
      phase->in_service_ms.push_back(in_service);
      if (t.hit) {
        ++phase->hits;
      } else {
        phase->miss_in_service_ms.push_back(in_service);
        phase->miss_payloads.push_back(s.payload);
      }
    }
  }

  svc::IngestService& service_;
  const Pool& pool_;
  std::uint64_t seed_;
  std::uint64_t phase_ = 0;
  hwprof::Rng rng_;
  Tracer& tracer_;
};

bool PhasePasses(const PhaseResult& p) {
  return p.queue_full == 0 && p.failures == 0 && p.P(0.99) <= kLatencyLimitMs &&
         static_cast<double>(p.backlog_end) <= std::max(8.0, 0.05 * p.rate);
}

template <typename F>
std::vector<double> Collect(const std::vector<PhaseResult*>& phases, F f) {
  std::vector<double> out;
  for (const PhaseResult* p : phases) {
    for (const Sent& s : p->sent) {
      out.push_back(f(s));
    }
  }
  return out;
}

}  // namespace

int RunIngestFleet(const Options& options, Tracer& tracer, Result& result) {
  // Set-up, three times: payload pool, names file, service start and socket
  // bind. The last one stays up for the run.
  std::vector<double> setup_ms;
  Pool pool;
  hwprof::TagFile names;
  std::unique_ptr<svc::IngestService> service;
  std::unique_ptr<svc::OpsServer> server;
  for (int k = 0; k < 3; ++k) {
    server.reset();
    service.reset();
    tracer.set_enabled(options.trace && k == 0);
    const double start = ProcessCpuMs();
    pool = BuildPool(options.seed, tracer);
    bool names_ok = false;
    {
      Tracer::Scope span(&tracer, "instr.names_parse");
      names_ok = hwprof::TagFile::Parse(pool.names_text, &names);
    }
    svc::ServiceOptions service_options;
    service_options.event_log_capacity = kEventLogCapacity;
    service_options.clock = [] { return NowNs(); };
    service = std::make_unique<svc::IngestService>(names, service_options);
    server = std::make_unique<svc::OpsServer>(*service, kSocketName);
    const bool bound = server->Start();
    setup_ms.push_back(ProcessCpuMs() - start);
    if (!result.Check("ingest.setup_ok", names_ok && bound, server->last_error())) {
      return 1;
    }
  }
  tracer.set_enabled(options.trace);
  result.Check("ingest.pool_distinct_payloads", pool.payloads.size() == kPoolSize,
               std::to_string(pool.payloads.size()) + " distinct");
  result.Check("ingest.pool_names_identical", pool.names_identical);
  result.Report("pool.payloads", static_cast<double>(pool.payloads.size()), "count");
  result.Report("pool.events", static_cast<double>(pool.events), "count");

  // Time budget: warm-up 10%, each fixed rate 25%, bisection 40%.
  const double s = options.seconds;
  Fleet fleet(*service, pool, options.seed, tracer);
  PhaseResult warmup = fleet.OpenLoop(500, 0.10 * s);
  PhaseResult r250 = fleet.OpenLoop(250, 0.25 * s);
  PhaseResult r500 = fleet.OpenLoop(500, 0.25 * s);
  for (PhaseResult* p : {&r250, &r500}) {
    for (const Sent& sent : p->sent) {
      result.Operation(sent.accepted);
    }
    // Every ACCEPTed upload reaches `summary`; drops and transport errors
    // fail their upload above.
    result.Check("ingest.accepted_reach_summary", p->unmatched == 0,
                 std::to_string(p->unmatched) + " unmatched");
  }
  // Peak RSS through set-up and the fixed-rate phases; the bisection's
  // overload probes fill the queues to their caps by design.
  const double peak_rss_mb = SelfPeakRssMb();
  if (options.tamper) {
    // A damaged upload: admitted, then typed `malformed` by its worker.
    std::string damaged = pool.payloads[0].bytes;
    damaged[damaged.size() / 2] ^= 0x01;
    std::uint64_t id = 0;
    std::string reason;
    std::string error;
    svc::OpsUpload(kSocketName, TenantName(0), damaged, &id, &reason, &error);
    service->WaitIdle();
  }
  // Bisection: five probes of 8% of the run each, between the best fixed
  // rate that passed and 4000/s.
  double lo = PhasePasses(r500) ? 500 : PhasePasses(r250) ? 250 : 0;
  double hi = 4000;
  std::vector<PhaseResult> probes;
  for (int i = 0; i < 5; ++i) {
    const double mid = (lo + hi) / 2;
    probes.push_back(fleet.OpenLoop(mid, 0.08 * s));
    (PhasePasses(probes.back()) ? lo : hi) = mid;
  }
  const double max_rate = lo;
  service->WaitIdle();

  // Ledgers, after every phase.
  const svc::ServiceStats stats = service->Stats();
  bool ledgers = stats.offered == stats.accepted + stats.DroppedTotal() &&
                 stats.offered_bytes == stats.accepted_bytes + stats.dropped_bytes &&
                 stats.accepted == stats.summaries + stats.malformed;
  for (const auto& [tenant, tc] : stats.tenants) {
    ledgers = ledgers && tc.offered == tc.accepted + tc.DroppedTotal() &&
              tc.accepted == tc.summaries + tc.malformed;
  }
  result.Check("ingest.ledgers_hold", ledgers);
  result.Check("ingest.no_malformed", stats.malformed == 0);

  // Cached summaries against an offline decode of the same payloads.
  std::uint64_t compared = 0;
  bool identical = true;
  for (std::size_t i = 0; i < pool.payloads.size() && compared < 16; i += 7) {
    svc::UploadOutcome outcome;
    if (!service->LookupOutcome(pool.payloads[i].hash, &outcome)) {
      continue;
    }
    std::string offline;
    const bool decoded = OfflineDecode(pool.payloads[i], names, tracer, &offline);
    if (options.tamper) {
      offline += "\n";
    }
    identical = decoded && offline == outcome.summary && identical;
    ++compared;
  }
  result.Check("ingest.cached_summaries_match_offline", compared > 0 && identical,
               std::to_string(compared) + " compared");

  // Figures. The fixed-rate phases give latency, accept time and cache
  // behaviour; all phases give drop ratio and lateness.
  const std::vector<PhaseResult*> fixed = {&r250, &r500};
  std::vector<PhaseResult*> all = {&warmup, &r250, &r500};
  for (PhaseResult& p : probes) {
    all.push_back(&p);
  }
  const std::vector<double> accept_us = Collect(fixed, [](const Sent& x) { return x.accept_us; });
  const std::vector<double> late_ms = Collect(all, [](const Sent& x) { return x.late_ms; });
  std::uint64_t offered_all = 0;
  std::uint64_t queue_full_all = 0;
  for (const PhaseResult* p : all) {
    offered_all += p->sent.size();
    queue_full_all += p->queue_full;
  }
  const double fixed_summaries = static_cast<double>(r250.summaries + r500.summaries);
  const double hit_ratio = static_cast<double>(r250.hits + r500.hits) / fixed_summaries;
  const double service_cpu_ms = r250.service_cpu_ms + r500.service_cpu_ms;
  const double events_per_cpu_s =
      static_cast<double>(r250.summarized_events + r500.summarized_events) /
      (service_cpu_ms / 1e3);

  std::map<std::string, std::pair<double, std::string>> layer = {
      {"service.accept_us_p50", {Percentile(accept_us, 0.5), "us"}},
      {"service.accept_us_p99", {Percentile(accept_us, 0.99), "us"}},
      {"service.in_service_ms_p50", {Median(r500.in_service_ms), "ms"}},
      {"service.cache_hit_ratio", {hit_ratio, "ratio"}},
      {"service.queue_full_ratio",
       {static_cast<double>(queue_full_all) / static_cast<double>(offered_all), "ratio"}},
      {"service.peak_queue_bytes", {static_cast<double>(stats.peak_queue_bytes), "bytes"}},
      {"service.generator_late_ms_p99", {Percentile(late_ms, 0.99), "ms"}},
      {"service.cpu_us_per_upload",
       {service_cpu_ms * 1e3 / static_cast<double>(r250.sent.size() + r500.sent.size()),
        "us"}},
      {"service.latency_p50_ms_r250", {r250.P(0.5), "ms"}},
      {"service.latency_p50_ms_r500", {r500.P(0.5), "ms"}},
      {"service.latency_p99_ms_r250", {r250.P(0.99), "ms"}},
      {"service.latency_p99_ms_r500", {r500.P(0.99), "ms"}},
      {"service.max_rate_ups", {max_rate, "1/s"}},
  };
  result.Report("ingest_p50_ms_r250", r250.P(0.5), "ms");
  result.Report("ingest_p50_ms_r500", r500.P(0.5), "ms");
  result.Report("ingest_max_rate_ups", max_rate, "1/s");
  result.Report("cache_hit_ratio.base_summaries", fixed_summaries, "count");
  result.Report("r250.uploads", static_cast<double>(r250.sent.size()), "count");
  result.Report("r500.uploads", static_cast<double>(r500.sent.size()), "count");
  result.Report("queue_full_ratio.base_offered", static_cast<double>(offered_all), "count");
  for (const auto& [tenant, tc] : stats.tenants) {
    const auto shard = svc::IngestService::HashPayload(tenant) % service->workers();
    result.Report("tenant." + tenant + ".offered", static_cast<double>(tc.offered), "count");
    result.Report("tenant." + tenant + ".worker", static_cast<double>(shard), "index");
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    result.Report("bisect." + std::to_string(i) + ".rate", probes[i].rate, "1/s");
    result.Report("bisect." + std::to_string(i) + ".p99_ms", probes[i].P(0.99), "ms");
    result.Report("bisect." + std::to_string(i) + ".queue_full",
                  static_cast<double>(probes[i].queue_full), "count");
  }

  if (!options.trace) {
    for (const auto& [name, v] : layer) {
      result.Report(name, v.first, v.second);
    }
    result.Metric("setup_s", Median(setup_ms) / 1e3, "s");
    result.Metric("events_per_s", events_per_cpu_s, "1/s");
    result.Metric("peak_rss_mb", peak_rss_mb, "MB");
    return 0;
  }

  // Traced only: decode the r500 misses' payloads offline to split their
  // in-service time into decode and queue wait.
  std::map<std::size_t, double> decode_ms;
  std::vector<double> miss_decode_ms;
  std::vector<double> queue_wait_ms;
  for (std::size_t i = 0; i < r500.miss_payloads.size(); ++i) {
    const std::size_t idx = r500.miss_payloads[i];
    if (decode_ms.count(idx) == 0) {
      std::string summary;
      const std::uint64_t start = NowNs();
      OfflineDecode(pool.payloads[idx], names, tracer, &summary);
      decode_ms[idx] = MsSince(start);
    }
    miss_decode_ms.push_back(decode_ms[idx]);
    queue_wait_ms.push_back(std::max(0.0, r500.miss_in_service_ms[i] - decode_ms[idx]));
  }
  layer["service.decode_ms_p50"] = {Median(miss_decode_ms), "ms"};
  layer["service.queue_wait_ms_p50"] = {Median(queue_wait_ms), "ms"};
  layer["service.queue_wait_ms_p99"] = {Percentile(queue_wait_ms, 0.99), "ms"};
  for (const auto& [name, v] : layer) {
    result.Metric(name, v.first, v.second);
  }
  std::uint64_t decoded_events = 0;
  for (const auto& [idx, ms] : decode_ms) {
    decoded_events += pool.payloads[idx].events;
  }
  const double feed_ms = tracer.SelfMs("analysis.feed");
  result.Metric("analysis.feed_ns_per_event",
                decoded_events == 0 ? 0.0 : feed_ms * 1e6 / static_cast<double>(decoded_events),
                "ns");
  result.Metric("instr.names_parse_ms", tracer.SelfMs("instr.names_parse"), "ms");
  result.Metric("kern.sim_ms", tracer.SelfMs("kern.sim"), "ms");
  result.Metric("profhw.encode_ms", tracer.SelfMs("profhw.encode"), "ms");
  // The span-recording share of the run: this workload has no untraced
  // twin of its open loop, so the overhead is measured directly.
  Tracer probe(true);
  const std::uint64_t probe_start = NowNs();
  for (int i = 0; i < 10000; ++i) {
    Tracer::Scope span(&probe, "probe");
  }
  const double ns_per_span = static_cast<double>(NowNs() - probe_start) / 10000.0;
  const double run_ms =
      tracer.spans().empty()
          ? 1.0
          : static_cast<double>(tracer.spans().back().end_ns -
                                tracer.spans().front().start_ns) / 1e6;
  result.Metric("trace.overhead_pct",
                ns_per_span * static_cast<double>(tracer.spans().size()) / 1e6 /
                    run_ms * 100.0,
                "%");
  return 0;
}

}  // namespace hwbench
