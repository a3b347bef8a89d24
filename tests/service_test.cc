// hwprofd's ingest service and observability plane: typed drop accounting
// (nothing leaves the service without landing in a named counter), the
// decoded-summary cache, health transitions, ingest-ID propagation through
// the event log, the ops protocol (pinned by goldens under a frozen clock
// with synchronous workers), the local-socket transport, and the SNMP
// publication of the service's deterministic self-snapshot.
//
// To regenerate the ops goldens after an intentional change:
//   HWPROF_REGEN_GOLDEN=1 ./build/tests/service_test

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/base/strings.h"
#include "src/profhw/binary_trace.h"
#include "src/service/ingest.h"
#include "src/service/ops.h"
#include "src/service/ops_socket.h"
#include "src/service/soak.h"
#include "src/snmp/mib.h"
#include "src/snmp/telemetry_mib.h"

namespace hwprof {
namespace service {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(HWPROF_TEST_DIR) + "/golden/" + name;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("HWPROF_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(out.good()) << "write to " << path << " failed";
    GTEST_SKIP() << "regenerated " << name;
  }
  std::string expected;
  ASSERT_TRUE(ReadFile(path, &expected))
      << path << " is missing; run with HWPROF_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(actual, expected)
      << name << " drifted; if the change is intentional, regenerate with "
      << "HWPROF_REGEN_GOLDEN=1";
}

// Frozen service clock: starts at 1s and advances 1ms per observation, so
// every run of the synchronous (workers=0) scenario sees identical
// timestamps and the rendered ops responses are byte-stable.
struct FrozenClock {
  std::uint64_t t_ns = 1'000'000'000ull;
  std::function<std::uint64_t()> fn() {
    return [this] {
      t_ns += 1'000'000ull;
      return t_ns;
    };
  }
};

ServiceOptions SyncOptions(FrozenClock* clock) {
  ServiceOptions options;
  options.workers = 0;  // decode inline in Submit(): deterministic ordering
  options.max_upload_bytes = 100'000;
  options.summary_rows = 5;
  options.clock = clock->fn();
  return options;
}

// The scripted scenario behind every ops golden: two tenants, one text and
// one binary capture, a cache hit, one drop of each admission flavour and
// one malformed payload.
void RunScriptedUploads(IngestService* service) {
  const std::string text = SynthTrace(1, 400).Serialize();
  const std::string binary = EncodeCaptureBinary(SynthTrace(2, 300));
  EXPECT_TRUE(service->Submit("alpha", text).accepted);
  service->Tick();
  EXPECT_TRUE(service->Submit("beta", binary).accepted);
  EXPECT_TRUE(service->Submit("alpha", text).accepted);  // cache hit
  EXPECT_EQ(service->Submit("beta", "").reason, DropReason::kEmpty);
  EXPECT_EQ(service->Submit("beta", std::string(100'001, 'x')).reason,
            DropReason::kOversize);
  EXPECT_TRUE(service->Submit("gamma", "this is not a capture\n").accepted);
  service->Tick();
}

TEST(ServiceOps, StatusGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_status.golden", HandleOpsCommand(service, "STATUS"));
}

TEST(ServiceOps, HealthGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_health.golden", HandleOpsCommand(service, "HEALTH"));
}

TEST(ServiceOps, TenantsGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_tenants.golden", HandleOpsCommand(service, "TENANTS"));
}

TEST(ServiceOps, MetricsGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_metrics.golden", HandleOpsCommand(service, "METRICS"));
}

TEST(ServiceOps, EventsGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_events.golden", HandleOpsCommand(service, "EVENTS 0"));
}

TEST(ServiceOps, IngestTrailGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_ingest.golden", HandleOpsCommand(service, "INGEST 1"));
}

TEST(ServiceOps, ErrorsAreTyped) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  EXPECT_EQ(HandleOpsCommand(service, ""), "ERR empty command\n");
  EXPECT_EQ(HandleOpsCommand(service, "BOGUS"),
            "ERR unknown command: BOGUS\n");
  EXPECT_EQ(HandleOpsCommand(service, "METRICS nope"),
            "ERR METRICS window must be a non-negative integer\n");
  // A window whose ns conversion would wrap uint64 is an error, not a
  // silently tiny window (UINT64_MAX/1e9 ~ 18446744073 seconds).
  EXPECT_EQ(HandleOpsCommand(service, "METRICS 18446744074"),
            "ERR METRICS window too large (use 0 for the whole ring)\n");
  EXPECT_NE(HandleOpsCommand(service, "METRICS 18446744073").substr(0, 3),
            "ERR");
  EXPECT_EQ(HandleOpsCommand(service, "INGEST nope"),
            "ERR INGEST id must be a non-negative integer\n");
  // Every success response ends with the OK terminator line.
  for (const char* cmd : {"STATUS", "HEALTH", "TENANTS", "METRICS", "EVENTS",
                          "INGEST 1"}) {
    const std::string response = HandleOpsCommand(service, cmd);
    ASSERT_GE(response.size(), 3u) << cmd;
    EXPECT_EQ(response.substr(response.size() - 3), "OK\n") << cmd;
  }
}

TEST(ServiceIngest, TypedDropAccountingBalancesExactly) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  const ServiceStats s = service.Stats();
  // The service-edge invariant, in uploads and in bytes.
  EXPECT_EQ(s.offered, s.accepted + s.DroppedTotal());
  EXPECT_EQ(s.offered_bytes, s.accepted_bytes + s.dropped_bytes);
  // And the pipeline invariant: everything admitted was fully processed.
  EXPECT_EQ(s.accepted, s.summaries + s.malformed);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kEmpty)], 1u);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kOversize)], 1u);
  EXPECT_EQ(s.malformed, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_GT(s.decoded_events, 0u);
  // Per-tenant rows sum to the totals.
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  for (const auto& [name, tc] : s.tenants) {
    offered += tc.offered;
    accepted += tc.accepted;
    EXPECT_EQ(tc.offered, tc.accepted + tc.DroppedTotal()) << name;
    EXPECT_EQ(tc.offered_bytes, tc.accepted_bytes + tc.dropped_bytes) << name;
  }
  EXPECT_EQ(offered, s.offered);
  EXPECT_EQ(accepted, s.accepted);
}

TEST(ServiceIngest, CachedSummaryMatchesOfflineDecode) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  const RawTrace raw = SynthTrace(7, 600);
  const std::string payload = raw.Serialize();
  EXPECT_TRUE(service.Submit("alpha", payload).accepted);
  EXPECT_TRUE(service.Submit("beta", payload).accepted);  // served from cache

  const ServiceStats s = service.Stats();
  EXPECT_EQ(s.summaries, 2u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_entries, 1u);

  UploadOutcome outcome;
  ASSERT_TRUE(
      service.LookupOutcome(IngestService::HashPayload(payload), &outcome));
  const DecodedTrace offline = Decoder::Decode(raw, SoakNames());
  EXPECT_EQ(outcome.summary, Summary(offline).Format(5))
      << "service summary diverged from the offline decode";
  EXPECT_EQ(outcome.events, offline.event_count);
}

TEST(ServiceIngest, CacheEvictsLeastRecentlyUsed) {
  FrozenClock clock;
  ServiceOptions options = SyncOptions(&clock);
  options.cache_capacity = 2;
  IngestService service(SoakNames(), options);
  const std::string a = SynthTrace(11, 200).Serialize();
  const std::string b = SynthTrace(12, 200).Serialize();
  const std::string c = SynthTrace(13, 200).Serialize();
  service.Submit("t", a);
  service.Submit("t", b);
  service.Submit("t", c);  // evicts a
  UploadOutcome outcome;
  EXPECT_FALSE(service.LookupOutcome(IngestService::HashPayload(a), &outcome));
  EXPECT_TRUE(service.LookupOutcome(IngestService::HashPayload(b), &outcome));
  EXPECT_TRUE(service.LookupOutcome(IngestService::HashPayload(c), &outcome));
  EXPECT_EQ(service.Stats().cache_entries, 2u);
}

TEST(ServiceIngest, CacheHitRefreshesRecency) {
  FrozenClock clock;
  ServiceOptions options = SyncOptions(&clock);
  options.cache_capacity = 2;
  IngestService service(SoakNames(), options);
  const std::string a = SynthTrace(21, 200).Serialize();
  const std::string b = SynthTrace(22, 200).Serialize();
  const std::string c = SynthTrace(23, 200).Serialize();
  service.Submit("t", a);
  service.Submit("t", b);
  service.Submit("t", a);  // cache hit: a becomes most recent
  service.Submit("t", c);  // must evict b, not a
  UploadOutcome outcome;
  EXPECT_TRUE(service.LookupOutcome(IngestService::HashPayload(a), &outcome));
  EXPECT_FALSE(service.LookupOutcome(IngestService::HashPayload(b), &outcome));
  EXPECT_TRUE(service.LookupOutcome(IngestService::HashPayload(c), &outcome));
  EXPECT_EQ(service.Stats().cache_hits, 1u);
}

TEST(ServiceIngest, RejectOversizeAccountsWithoutPayload) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  // A declared size far beyond any allocatable payload still lands in the
  // same typed counters and event log as a Submit()-time oversize drop.
  const SubmitResult r =
      service.RejectOversize("liar", 99'999'999'999'999'999ull);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reason, DropReason::kOversize);
  EXPECT_GT(r.ingest_id, 0u);
  const ServiceStats s = service.Stats();
  EXPECT_EQ(s.offered, 1u);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kOversize)], 1u);
  EXPECT_EQ(s.offered_bytes, s.accepted_bytes + s.dropped_bytes);
  const std::vector<LogEvent> trail =
      service.event_log().ForIngest(r.ingest_id);
  ASSERT_EQ(trail.size(), 1u);
  EXPECT_NE(trail[0].detail.find("reason=oversize"), std::string::npos);

  // Admission checks drain before size, so a declared-oversize upload that
  // arrives during drain is a draining drop like any other upload.
  service.BeginDrain();
  const SubmitResult late = service.RejectOversize("liar", 200'000);
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.reason, DropReason::kDraining);
  const ServiceStats drained = service.Stats();
  EXPECT_EQ(drained.dropped[static_cast<std::size_t>(DropReason::kOversize)],
            1u);
  EXPECT_EQ(drained.dropped[static_cast<std::size_t>(DropReason::kDraining)],
            1u);
  EXPECT_EQ(drained.offered_bytes,
            drained.accepted_bytes + drained.dropped_bytes);
}

TEST(ServiceIngest, BackpressureIsATypedQueueFullDrop) {
  // queue_max_depth=0 with real workers rejects every enqueue before any
  // worker can race to drain it — the deterministic way to hit the limit.
  FrozenClock clock;
  ServiceOptions options = SyncOptions(&clock);
  options.workers = 1;
  options.queue_max_depth = 0;
  IngestService service(SoakNames(), options);
  const SubmitResult r = service.Submit("t", SynthTrace(3, 100).Serialize());
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reason, DropReason::kQueueFull);
  service.Stop();
  const ServiceStats s = service.Stats();
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kQueueFull)], 1u);
  EXPECT_EQ(s.offered, s.accepted + s.DroppedTotal());
  EXPECT_EQ(s.offered_bytes, s.accepted_bytes + s.dropped_bytes);
  for (const auto& [name, tc] : s.tenants) {
    EXPECT_EQ(tc.offered_bytes, tc.accepted_bytes + tc.dropped_bytes) << name;
  }
}

TEST(ServiceIngest, HealthTransitionsReadyDegradedDraining) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  EXPECT_EQ(service.health(), Health::kReady);
  EXPECT_EQ(service.HealthDetail(), "ok");

  EXPECT_TRUE(service.Submit("t", "garbage payload\n").accepted);
  EXPECT_EQ(service.health(), Health::kDegraded)
      << "a malformed admission must degrade health";
  EXPECT_EQ(service.HealthDetail(), "drops=0 malformed=1");

  service.BeginDrain();
  EXPECT_EQ(service.health(), Health::kDraining);
  const SubmitResult r = service.Submit("t", SynthTrace(4, 100).Serialize());
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reason, DropReason::kDraining);

  service.Stop();
  EXPECT_EQ(service.health(), Health::kDraining);
  const ServiceStats s = service.Stats();
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kDraining)], 1u);
}

TEST(ServiceIngest, IngestIdPropagatesCaptureDecodeSummary) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  const SubmitResult r = service.Submit("alpha", SynthTrace(5, 300).Serialize());
  ASSERT_TRUE(r.accepted);
  const std::vector<LogEvent> trail = service.event_log().ForIngest(r.ingest_id);
  ASSERT_EQ(trail.size(), 3u);
  EXPECT_EQ(trail[0].stage, "capture");
  EXPECT_EQ(trail[1].stage, "decode");
  EXPECT_EQ(trail[2].stage, "summary");
  for (const LogEvent& e : trail) {
    EXPECT_EQ(e.ingest_id, r.ingest_id);
    EXPECT_EQ(e.tenant, "alpha");
  }
  // Drops leave a trail too: the drop reason lands in the capture stage.
  const SubmitResult drop = service.Submit("alpha", "");
  ASSERT_FALSE(drop.accepted);
  const std::vector<LogEvent> drop_trail =
      service.event_log().ForIngest(drop.ingest_id);
  ASSERT_EQ(drop_trail.size(), 1u);
  EXPECT_EQ(drop_trail[0].stage, "capture");
  EXPECT_NE(drop_trail[0].detail.find("reason=empty"), std::string::npos);
}

TEST(ServiceIngest, SelfSnapshotFeedsTheSnmpSubtree) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);

  const obs::Snapshot snap = service.SelfSnapshot();
  const ServiceStats s = service.Stats();
  EXPECT_EQ(snap.CounterValue("svc.offered"), s.offered);
  EXPECT_EQ(snap.CounterValue("svc.accepted"), s.accepted);
  EXPECT_EQ(snap.CounterValue("svc.drop.empty"), 1u);
  EXPECT_EQ(snap.CounterValue("svc.drop.oversize"), 1u);
  EXPECT_EQ(snap.CounterValue("svc.malformed"), 1u);

  // Published through the same MIB machinery the agent serves, the upload
  // size ladder surfaces percentile leaves (.5/.6/.7) a station can poll.
  BTreeMib mib;
  PopulateTelemetryMib(snap, &mib);
  const Oid root = ProfTelemetryRoot();
  Oid at = root;
  Oid row_oid;
  while (const MibEntry* e = mib.GetNext(at)) {
    if (e->oid.size() == root.size() + 4 && e->value == "svc.upload_bytes") {
      row_oid = e->oid;
      break;
    }
    at = e->oid;
  }
  ASSERT_FALSE(row_oid.empty()) << "svc.upload_bytes row not published";
  Oid p50_oid = row_oid;
  p50_oid[root.size() + 2] = 5;  // name column -> p50 column
  const MibEntry* p50 = mib.Get(p50_oid);
  ASSERT_NE(p50, nullptr);
  EXPECT_NE(p50->value, "0") << "upload-size p50 should be nonzero";

  // The self-snapshot is deterministic: same state, same bytes.
  EXPECT_EQ(service.SelfSnapshot().FormatJson(), snap.FormatJson());
}

TEST(ServiceSocket, UploadAndQueryRoundTrip) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  const std::string path = ::testing::TempDir() + "/hwprofd_test.sock";
  std::remove(path.c_str());
  OpsServer server(service, path);
  ASSERT_TRUE(server.Start()) << server.last_error();

  std::uint64_t ingest_id = 0;
  std::string drop_reason;
  std::string error;
  ASSERT_TRUE(OpsUpload(path, "alpha", SynthTrace(6, 300).Serialize(),
                        &ingest_id, &drop_reason, &error))
      << error << " " << drop_reason;
  EXPECT_GT(ingest_id, 0u);

  // The reply's ingest ID keys the trail the daemon retains.
  const std::string trail =
      OpsQuery(path, StrFormat("INGEST %llu",
                               static_cast<unsigned long long>(ingest_id)),
               &error);
  EXPECT_NE(trail.find("\"stage\":\"summary\""), std::string::npos) << trail;

  EXPECT_EQ(OpsQuery(path, "HEALTH", &error), "ready ok\nOK\n");

  // A typed drop travels back over the wire with its reason.
  EXPECT_FALSE(
      OpsUpload(path, "alpha", "", &ingest_id, &drop_reason, &error));
  EXPECT_EQ(drop_reason, "empty");

  server.Stop();
  service.Stop();
}

TEST(ServiceSocket, OversizeHeaderRejectedWithoutBuffering) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));  // cap = 100'000
  const std::string path = ::testing::TempDir() + "/hwprofd_oversize.sock";
  std::remove(path.c_str());
  OpsServer server(service, path);
  ASSERT_TRUE(server.Start()) << server.last_error();

  std::string error;
  // A lying header declaring an unallocatable size must get a typed DROP
  // reply, not resize(nbytes) the daemon to death. OpsQuery frames exactly
  // the hostile shape: the header line with no payload behind it.
  const std::string reply =
      OpsQuery(path, "UPLOAD liar 99999999999999999", &error);
  EXPECT_EQ(reply.substr(0, 14), "DROP oversize ") << reply << error;

  // A genuinely oversize payload still round-trips its typed reason: the
  // server replies from the header alone and drains the body.
  std::uint64_t ingest_id = 0;
  std::string drop_reason;
  EXPECT_FALSE(OpsUpload(path, "alpha", std::string(100'001, 'x'), &ingest_id,
                         &drop_reason, &error))
      << error;
  EXPECT_EQ(drop_reason, "oversize");

  // The daemon survived both and still serves; nothing dropped silently.
  EXPECT_EQ(OpsQuery(path, "HEALTH", &error).substr(0, 8), "degraded");
  const ServiceStats s = service.Stats();
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kOversize)], 2u);
  EXPECT_EQ(s.offered, s.accepted + s.DroppedTotal());
  EXPECT_EQ(s.offered_bytes, s.accepted_bytes + s.dropped_bytes);

  server.Stop();
  service.Stop();
}

TEST(ServiceSocket, StopUnblocksSilentConnections) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  const std::string path = ::testing::TempDir() + "/hwprofd_silent.sock";
  std::remove(path.c_str());
  OpsServer server(service, path);
  ASSERT_TRUE(server.Start()) << server.last_error();

  // A client that connects and sends nothing must not pin its handler
  // thread: Stop() shutdown()s the fd so the blocked read returns, well
  // before the 10s receive timeout would.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  // Give the accept loop a moment to hand the fd to a handler thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5))
      << "Stop() must not wait out the connection read timeout";
  ::close(fd);
  service.Stop();
}

}  // namespace
}  // namespace service
}  // namespace hwprof
