// capture_stream: the saturating network receive captured on a
// double-buffered board with a 50 ms drain, run until about 1M events are
// drained, then encoded and written as a hwpb capture container.
//
// Almost all the time is in kern/sim plus the profhw write side; analysis
// does nothing here. Every iteration rebuilds the Testbed (the set-up) so
// the simulated counts and the container digest must repeat exactly.

#include <memory>
#include <utility>
#include <vector>

#include "bench_workloads.h"
#include "src/base/rng.h"
#include "src/profhw/binary_trace.h"
#include "src/profhw/smart_socket.h"
#include "src/service/ingest.h"
#include "src/workloads/workloads.h"

namespace hwbench {
namespace {

// ~78.7 events per received KB: 13.5 MB drains about 1.06M events. The
// seed adds 0..7 steps of 48 KB (a band of about +3%), which keeps every
// seed's event count on the same side of 2^20 (vector capacities double
// there, which would split peak RSS into two classes of seeds).
constexpr std::uint64_t kStreamBaseBytes = 13500ull * 1024;
constexpr std::uint64_t kStreamStepBytes = 48ull * 1024;
constexpr std::uint64_t kStreamSteps = 8;
constexpr hwprof::Nanoseconds kDrainPeriod = hwprof::Msec(50);
// The receive runs until stream EOF; this only bounds the idle tail.
constexpr hwprof::Nanoseconds kMinDuration = hwprof::Sec(1);

std::uint64_t StreamBytesForSeed(std::uint64_t seed) {
  hwprof::Rng rng(seed);
  return kStreamBaseBytes + rng.NextBelow(kStreamSteps) * kStreamStepBytes;
}

}  // namespace

bool CaptureStreamOnce(std::uint64_t seed, const std::string& capture_path,
                       const std::string& names_path, bool tamper, Tracer& tracer,
                       Result& result, CaptureRun* out) {
  const double setup_start = ThreadCpuMs();
  std::unique_ptr<hwprof::Testbed> tb;
  {
    Tracer::Scope span(&tracer, "kern.testbed_build");
    hwprof::TestbedConfig config;
    config.profiler.double_buffer = true;
    tb = std::make_unique<hwprof::Testbed>(config);
  }
  out->setup_cpu_ms = ThreadCpuMs() - setup_start;

  hwprof::StreamingRunResult run;
  hwprof::RawTrace raw;
  std::string container;
  bool write_ok = false;
  const std::uint64_t capture_start = NowNs();
  const double capture_cpu_start = ThreadCpuMs();
  {
    Tracer::Scope root(&tracer, "capture.iteration");
    {
      Tracer::Scope span(&tracer, "kern.sim");
      tb->Arm();
      run = hwprof::RunStreamingNetworkReceive(*tb, kMinDuration,
                                               StreamBytesForSeed(seed),
                                               kDrainPeriod);
    }
    {
      Tracer::Scope span(&tracer, "profhw.flatten");
      hwprof::StreamCapture stream;
      stream.timer_bits = tb->profiler().timer().bits();
      stream.timer_clock_hz = tb->profiler().timer().clock_hz();
      stream.chunks = std::move(run.chunks);
      raw = stream.Flatten();
    }
    {
      Tracer::Scope span(&tracer, "profhw.encode");
      container = hwprof::EncodeCaptureBinary(raw);
    }
    {
      Tracer::Scope span(&tracer, "profhw.write");
      write_ok = WriteFile(capture_path, container);
    }
  }
  out->capture_ms = MsSince(capture_start);
  out->capture_cpu_ms = ThreadCpuMs() - capture_cpu_start;
  out->peak_rss_mb = SelfPeakRssMb();
  if (!names_path.empty()) {
    Tracer::Scope span(&tracer, "instr.names_format");
    write_ok = WriteFile(names_path, tb->tags().Format()) && write_ok;
  }

  SimCounts& counts = out->counts;
  counts.events = run.events_drained;
  counts.dropped_events = run.events_dropped;
  counts.drains = run.drains;
  counts.polls = run.polls;
  counts.virtual_ms = static_cast<double>(tb->machine().Now()) / 1e6;
  counts.capture_bytes = container.size();
  counts.digest = hwprof::service::IngestService::HashPayload(container);
  if (tamper) {
    container[container.size() / 2] ^= 0x01;
  }

  bool decodes_back = false;
  {
    Tracer::Scope span(&tracer, "profhw.decode_check");
    hwprof::RawTrace back;
    std::vector<hwprof::TraceDiag> diags;
    decodes_back = hwprof::DecodeCaptureBinary(container, &back, &diags) &&
                   back.events == raw.events &&
                   raw.events.size() == run.events_drained;
  }
  const bool integrity = result.Check("capture.integrity_ok", run.net.integrity_ok);
  const bool io = result.Check("capture.io_ok", run.io_ok && write_ok);
  return result.Check("capture.decodes_to_drained_events", decodes_back) && integrity && io;
}

void ReportSimCounts(const SimCounts& counts, Result& result) {
  result.Metric("sim.events", static_cast<double>(counts.events), "count");
  result.Metric("sim.dropped_events", static_cast<double>(counts.dropped_events), "count");
  result.Metric("sim.drains", static_cast<double>(counts.drains), "count");
  result.Metric("sim.polls", static_cast<double>(counts.polls), "count");
  result.Metric("sim.virtual_ms", counts.virtual_ms, "ms");
  result.Metric("capture.bytes", static_cast<double>(counts.capture_bytes), "bytes");
}

int RunCaptureStream(const Options& options, Tracer& tracer, Result& result) {
  const std::string capture_path = options.work_dir + "/capture_stream.hwpb";
  std::vector<double> setup_ms;
  std::vector<double> events_per_s;
  std::vector<double> events_per_cpu_s;
  std::vector<double> capture_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  SimCounts first;
  double peak_rss_mb = 0.0;
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (int i = 0; i < 3 || NowNs() < deadline; ++i) {
    // The traced run leaves every third iteration untraced: the difference
    // between the two is the tracing overhead.
    tracer.set_enabled(options.trace && i % 3 != 2);
    tracer.SetTraceId(static_cast<std::uint64_t>(i) + 1);
    CaptureRun run;
    bool ok = CaptureStreamOnce(options.seed, capture_path, "", options.tamper,
                                tracer, result, &run);
    const SimCounts& counts = run.counts;
    const double capture = run.capture_ms;
    if (i == 0) {
      first = counts;
      // The peak of one capture. Later iterations are not counted: each
      // streaming run leaks its drained chunks (see README.md), so the
      // process peak would grow with the iteration count.
      peak_rss_mb = run.peak_rss_mb;
    } else {
      ok = result.Check("capture.counts_and_digest_repeat", counts == first) && ok;
    }
    result.Operation(ok);
    (tracer.enabled() ? traced_ms : untraced_ms).push_back(capture);
    setup_ms.push_back(run.setup_cpu_ms);
    const double events = static_cast<double>(counts.events);
    events_per_s.push_back(events / (capture / 1e3));
    events_per_cpu_s.push_back(events / (run.capture_cpu_ms / 1e3));
    capture_ms.push_back(capture);
  }
  tracer.set_enabled(options.trace);

  result.Report("capture_events_per_s", Median(events_per_s), "1/s");
  result.Report("iterations", static_cast<double>(setup_ms.size()), "count");
  result.Report("capture_ms_p50", Median(capture_ms), "ms");
  result.Report("sim.events", static_cast<double>(first.events), "count");
  result.Report("sim.dropped_events", static_cast<double>(first.dropped_events), "count");
  result.Info("capture.digest", std::to_string(first.digest));
  if (!options.trace) {
    result.Metric("setup_s", Median(setup_ms) / 1e3, "s");
    result.Metric("events_per_s", Median(events_per_cpu_s), "1/s");
    result.Metric("peak_rss_mb", peak_rss_mb, "MB");
    return 0;
  }
  const double sim_ms = Median(tracer.PerRootSelfMs("capture.iteration", "kern.sim"));
  result.Metric("kern.sim_ms", sim_ms, "ms");
  result.Metric("kern.ns_per_event", sim_ms * 1e6 / static_cast<double>(first.events), "ns");
  result.Metric("profhw.encode_ms",
                Median(tracer.PerRootSelfMs("capture.iteration", "profhw.encode")), "ms");
  result.Metric("profhw.flatten_ms",
                Median(tracer.PerRootSelfMs("capture.iteration", "profhw.flatten")), "ms");
  result.Metric("profhw.write_ms",
                Median(tracer.PerRootSelfMs("capture.iteration", "profhw.write")), "ms");
  ReportSimCounts(first, result);
  const double closure = tracer.Closure("capture.iteration");
  result.Metric("trace.closure_ratio", closure, "ratio");
  result.Check("trace.closure_within_5pct", closure >= 0.95 && closure <= 1.05);
  result.Metric("trace.overhead_pct",
                (Median(traced_ms) / Median(untraced_ms) - 1.0) * 100.0, "%");
  return 0;
}

}  // namespace hwbench
