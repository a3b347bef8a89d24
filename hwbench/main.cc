// hwbench: the repository benchmark program. run.py builds it and calls
//
//   hwbench --workload <capture_stream|analyze_1m|ingest_fleet> --seed N
//           --seconds S --trace 0|1 --tools DIR --work-dir DIR [--tamper]
//
// and it prints one JSON record as its last stdout line (Result::ToJson).
// With --trace 1 it also writes the run's spans as Chrome trace-event JSON
// to <work-dir>/trace.json.
//
//   hwbench --make-capture <capture> <names> --seed N
//
// is the analyze_1m set-up step, run as a child process.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "bench_workloads.h"
#include "common.h"
#include "spans.h"

namespace hwbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by every untraced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"events_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, printed by every traced run. A workload that does
// no work in a layer reports 0 for its metrics; README.md maps each metric
// to the workload and end-to-end metric it should move.
constexpr MetricSpec kPerLayer[] = {
    {"kern.sim_ms", "ms"},
    {"kern.ns_per_event", "ns"},
    {"profhw.flatten_ms", "ms"},
    {"profhw.encode_ms", "ms"},
    {"profhw.write_ms", "ms"},
    {"profhw.read_ms", "ms"},
    {"profhw.read_mb_per_s", "MB/s"},
    {"instr.names_parse_ms", "ms"},
    {"analysis.feed_ms", "ms"},
    {"analysis.feed_ns_per_event", "ns"},
    {"analysis.finish_ms", "ms"},
    {"analysis.serial_decode_ms", "ms"},
    {"analysis.default_decode_ms", "ms"},
    {"analysis.release_ms", "ms"},
    {"analysis.summary_ms", "ms"},
    {"analysis.format_ms", "ms"},
    {"analysis.call_nodes", "count"},
    {"analysis.steps", "count"},
    {"analysis.stacks", "count"},
    {"analysis.shards", "count"},
    {"analysis.functions", "count"},
    {"analysis.events", "count"},
    {"service.accept_us_p50", "us"},
    {"service.accept_us_p99", "us"},
    {"service.in_service_ms_p50", "ms"},
    {"service.decode_ms_p50", "ms"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p99", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.queue_full_ratio", "ratio"},
    {"service.peak_queue_bytes", "bytes"},
    {"service.generator_late_ms_p99", "ms"},
    {"service.cpu_us_per_upload", "us"},
    {"service.latency_p50_ms_r250", "ms"},
    {"service.latency_p50_ms_r500", "ms"},
    {"service.latency_p99_ms_r250", "ms"},
    {"service.latency_p99_ms_r500", "ms"},
    {"service.max_rate_ups", "1/s"},
    {"sim.events", "count"},
    {"sim.dropped_events", "count"},
    {"sim.drains", "count"},
    {"sim.polls", "count"},
    {"sim.virtual_ms", "ms"},
    {"capture.bytes", "bytes"},
    {"trace.closure_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: hwbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--tools DIR --work-dir DIR [--tamper]\n"
               "       hwbench --make-capture CAPTURE NAMES --seed N\n");
  return 2;
}

bool ParseU64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

// analyze_1m's set-up step: prints "events=N bytes=B" on success.
int MakeCapture(const std::string& capture, const std::string& names,
                std::uint64_t seed) {
  Tracer off(false);
  Result checks;
  CaptureRun run;
  if (!CaptureStreamOnce(seed, capture, names, /*tamper=*/false, off, checks, &run) ||
      !checks.correct() || run.counts.dropped_events != 0) {
    std::fprintf(stderr, "hwbench: capture set-up failed\n");
    return 1;
  }
  std::printf("events=%llu bytes=%llu\n",
              static_cast<unsigned long long>(run.counts.events),
              static_cast<unsigned long long>(run.counts.capture_bytes));
  return 0;
}

int Main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t v = 0;
    if (arg == "--make-capture" && i + 4 < argc &&
        std::string_view(argv[i + 3]) == "--seed" && ParseU64(argv[i + 4], &v)) {
      return MakeCapture(argv[i + 1], argv[i + 2], v);
    } else if (arg == "--workload" && next != nullptr) {
      options.workload = next;
      have_workload = true;
    } else if (arg == "--seed" && next != nullptr && ParseU64(next, &v)) {
      options.seed = v;
      have_seed = true;
    } else if (arg == "--seconds" && next != nullptr) {
      options.seconds = std::atof(next);
    } else if (arg == "--trace" && next != nullptr && ParseU64(next, &v) && v <= 1) {
      options.trace = v == 1;
    } else if (arg == "--tools" && next != nullptr) {
      options.tools_dir = next;
    } else if (arg == "--work-dir" && next != nullptr) {
      options.work_dir = next;
    } else if (arg == "--tamper") {
      options.tamper = true;
      continue;
    } else {
      return Usage();
    }
    ++i;
  }
  if (!have_workload || !have_seed || options.seconds <= 0.0 ||
      options.tools_dir.empty() || options.work_dir.empty()) {
    return Usage();
  }

  // The hwprofd socket is bound by a relative name: sockaddr_un paths are
  // short, the checkout's path may not be.
  if (chdir(options.work_dir.c_str()) != 0) {
    std::fprintf(stderr, "hwbench: cannot enter %s\n", options.work_dir.c_str());
    return 1;
  }
  Tracer tracer(options.trace);
  Result result;
  result.Info("workload", options.workload);
  result.Info("seed", std::to_string(options.seed));
  result.Info("build_type", HWBENCH_BUILD_TYPE);
  result.Info("compiler", HWBENCH_CXX_VERSION);
  int rc = 0;
  if (options.workload == "capture_stream") {
    rc = RunCaptureStream(options, tracer, result);
  } else if (options.workload == "analyze_1m") {
    rc = RunAnalyze1m(options, tracer, result);
  } else if (options.workload == "ingest_fleet") {
    rc = RunIngestFleet(options, tracer, result);
  } else {
    std::fprintf(stderr, "hwbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (rc != 0) {
    std::fprintf(stderr, "hwbench: workload %s failed\n", options.workload.c_str());
    return rc;
  }
  if (options.trace) {
    result.Metric("trace.spans", static_cast<double>(tracer.spans().size()), "count");
    for (const MetricSpec& m : kPerLayer) {
      if (!result.HasMetric(m.name)) {
        result.Metric(m.name, 0.0, m.unit);
      }
    }
    if (!WriteFile(options.work_dir + "/trace.json", tracer.ChromeJson())) {
      std::fprintf(stderr, "hwbench: cannot write the trace\n");
      return 1;
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      if (!result.HasMetric(m.name)) {
        std::fprintf(stderr, "hwbench: workload did not measure %s\n", m.name);
        return 1;
      }
    }
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace hwbench

int main(int argc, char** argv) { return hwbench::Main(argc, argv); }
