// analyze_1m: `hwprof_analyze <capture> <names>` with its default options,
// in a closed loop on the ~1M-event capture capture_stream's code writes
// during set-up. This is the offline hwpb -> decode -> summary -> report
// path; kern/sim do no work outside set-up.
//
// The untraced run times the real tool as a child process (its own CPU
// time, peak RSS, exit status and report). The traced run repeats the tool's default
// path in-process, call by call, through both decode engines.

#include <unistd.h>

#include <memory>
#include <utility>
#include <vector>

#include "bench_workloads.h"
#include "src/analysis/decoder.h"
#include "src/analysis/parallel.h"
#include "src/analysis/summary.h"
#include "src/base/mmap_file.h"
#include "src/instr/tag_file.h"
#include "src/profhw/binary_trace.h"

namespace hwbench {
namespace {

// hwprof_analyze prints the top 20 rows when given no report option.
constexpr std::size_t kDefaultRows = 20;

std::size_t CountNodes(const hwprof::CallNode& node) {
  std::size_t n = 1;
  for (const auto& child : node.children) {
    if (child != nullptr) {
      n += CountNodes(*child);
    }
  }
  return n;
}

// The tool's binary fast path (tools/analyze_main.cc
// DecodeBinaryCaptureFile) with a span around every call.
template <typename Engine>
hwprof::DecodedTrace FeedAll(Engine& engine, hwprof::BinaryChunkReader& reader,
                             Tracer& tracer) {
  engine.NoteDropped(reader.dropped_events());
  engine.SetClockEnvelope(static_cast<hwprof::Nanoseconds>(reader.capture_elapsed_ns()));
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
      engine.NoteDropped(chunk.dropped_before);
    }
    engine.FeedSoA(chunk.tags.data(), chunk.timestamps.data(), chunk.tags.size());
  }
  engine.NoteCorruptWords(reader.corrupt_words());
  Tracer::Scope span(&tracer, "analysis.finish");
  return engine.Finish(reader.overflowed());
}

struct InProcessRun {
  bool ok = false;
  std::string report;
  bool anomalies = false;
  std::size_t shards = 0;
  std::size_t call_nodes = 0;
  std::size_t steps = 0;
  std::size_t stacks = 0;
  std::size_t functions = 0;
  std::size_t events = 0;
  double inspect_ms = 0.0;  // the benchmark's own walk over the result
};

// One in-process analysis of the capture, rooted at `root`.
InProcessRun AnalyzeInProcess(const std::string& capture_path,
                              const std::string& names_path, bool serial,
                              const char* root, Tracer& tracer) {
  InProcessRun run;
  Tracer::Scope root_span(&tracer, root);
  std::string names_text;
  hwprof::TagFile names;
  {
    Tracer::Scope span(&tracer, "instr.names_read");
    if (!ReadFile(names_path, &names_text)) {
      return run;
    }
  }
  {
    Tracer::Scope span(&tracer, "instr.names_parse");
    if (!hwprof::TagFile::Parse(names_text, &names)) {
      return run;
    }
  }
  hwprof::MappedFile file;
  {
    Tracer::Scope span(&tracer, "profhw.open");
    if (!file.Open(capture_path)) {
      return run;
    }
  }
  hwprof::BinaryChunkReader reader(file.view(), /*salvage=*/false);
  if (!reader.header_ok() || reader.kind() != hwprof::BinaryKind::kCapture) {
    return run;
  }
  std::unique_ptr<hwprof::DecodedTrace> decoded;
  if (serial) {
    auto decoder = std::make_unique<hwprof::StreamingDecoder>(
        names, reader.timer_bits(), reader.timer_clock_hz(),
        hwprof::StreamingOptions{.retain_structure = true});
    decoded = std::make_unique<hwprof::DecodedTrace>(FeedAll(*decoder, reader, tracer));
    Tracer::Scope span(&tracer, "analysis.engine_release");
    decoder.reset();
  } else {
    auto analyzer = std::make_unique<hwprof::ParallelAnalyzer>(
        names, reader.timer_bits(), reader.timer_clock_hz(),
        hwprof::ParallelOptions{.jobs = 0});
    decoded = std::make_unique<hwprof::DecodedTrace>(FeedAll(*analyzer, reader, tracer));
    run.shards = analyzer->shards_planned();
    Tracer::Scope span(&tracer, "analysis.engine_release");
    analyzer.reset();
  }
  if (reader.failed()) {
    return run;
  }
  std::unique_ptr<hwprof::Summary> summary;
  {
    Tracer::Scope span(&tracer, "analysis.summary");
    summary = std::make_unique<hwprof::Summary>(*decoded);
  }
  {
    Tracer::Scope span(&tracer, "analysis.format");
    run.report = summary->Format(kDefaultRows);
  }
  {
    const std::uint64_t start = NowNs();
    Tracer::Scope span(&tracer, "bench.inspect");
    run.anomalies = decoded->HasAnomalies();
    run.steps = decoded->steps.size();
    run.stacks = decoded->stacks.size();
    run.functions = decoded->per_function.size();
    run.events = decoded->event_count;
    for (const auto& stack : decoded->stacks) {
      if (stack->root != nullptr) {
        run.call_nodes += CountNodes(*stack->root) - 1;  // minus the synthetic root
      }
    }
    run.inspect_ms = MsSince(start);
  }
  {
    Tracer::Scope span(&tracer, "analysis.release");
    decoded.reset();
  }
  run.ok = true;
  return run;
}

int Traced(const Options& options, const std::string& capture_path,
           const std::string& names_path, const SimCounts& counts,
           Tracer& tracer, Result& result) {
  std::vector<double> default_ms;
  std::vector<double> untraced_ms;
  InProcessRun last;
  std::string serial_report;
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(options.seconds * 1e9);
  // Rounds of three: default engine traced, serial engine traced, default
  // engine untraced (the tracing-overhead reference).
  for (int i = 0; i < 3 || NowNs() < deadline; ++i) {
    const int kind = i % 3;
    tracer.set_enabled(kind != 2);
    tracer.SetTraceId(static_cast<std::uint64_t>(i) + 1);
    const std::uint64_t start = NowNs();
    const InProcessRun run =
        AnalyzeInProcess(capture_path, names_path, kind == 1,
                         kind == 1 ? "analyze.serial" : "analyze.default", tracer);
    const double ms = MsSince(start) - run.inspect_ms;
    bool ok = result.Check("analyze.inprocess_decode_ok", run.ok);
    ok = result.Check("analyze.no_anomalies", !run.anomalies) && ok;
    if (kind == 1) {
      serial_report = run.report;
    } else {
      (kind == 0 ? default_ms : untraced_ms).push_back(ms);
      if (kind == 0) {
        last = run;
      }
    }
    if (!serial_report.empty() && !last.report.empty()) {
      ok = result.Check("analyze.report_identical_to_jobs1",
                        last.report == serial_report) && ok;
    }
    result.Operation(ok);
  }
  tracer.set_enabled(true);

  auto per_default = [&](const char* name) {
    return Median(tracer.PerRootSelfMs("analyze.default", name));
  };
  auto decode_ms = [&](const char* root) {
    std::vector<double> total = tracer.PerRootSelfMs(root, "profhw.read");
    for (const char* part : {"profhw.open", "analysis.feed", "analysis.finish"}) {
      const std::vector<double> more = tracer.PerRootSelfMs(root, part);
      for (std::size_t k = 0; k < total.size() && k < more.size(); ++k) {
        total[k] += more[k];
      }
    }
    return Median(total);
  };
  const double events = static_cast<double>(last.events);
  const double read_ms = per_default("profhw.read") + per_default("profhw.open");
  result.Metric("profhw.read_ms", read_ms, "ms");
  result.Metric("profhw.read_mb_per_s",
                static_cast<double>(counts.capture_bytes) / 1e6 / (read_ms / 1e3), "MB/s");
  result.Metric("instr.names_parse_ms", per_default("instr.names_parse"), "ms");
  const double feed_ms = per_default("analysis.feed");
  result.Metric("analysis.feed_ms", feed_ms, "ms");
  result.Metric("analysis.feed_ns_per_event", feed_ms * 1e6 / events, "ns");
  result.Metric("analysis.finish_ms", per_default("analysis.finish"), "ms");
  result.Metric("analysis.summary_ms", per_default("analysis.summary"), "ms");
  result.Metric("analysis.format_ms", per_default("analysis.format"), "ms");
  result.Metric("analysis.release_ms", per_default("analysis.release"), "ms");
  result.Metric("analysis.default_decode_ms", decode_ms("analyze.default"), "ms");
  result.Metric("analysis.serial_decode_ms", decode_ms("analyze.serial"), "ms");
  result.Metric("analysis.call_nodes", static_cast<double>(last.call_nodes), "count");
  result.Metric("analysis.steps", static_cast<double>(last.steps), "count");
  result.Metric("analysis.stacks", static_cast<double>(last.stacks), "count");
  result.Metric("analysis.shards", static_cast<double>(last.shards), "count");
  result.Metric("analysis.functions", static_cast<double>(last.functions), "count");
  result.Metric("analysis.events", events, "count");
  // Set-up only: the capture this workload analyses.
  ReportSimCounts(counts, result);
  result.Metric("kern.sim_ms", tracer.SelfMs("kern.sim"), "ms");
  const double closure = tracer.Closure("analyze.default");
  result.Metric("trace.closure_ratio", closure, "ratio");
  result.Check("trace.closure_within_5pct", closure >= 0.95 && closure <= 1.05);
  result.Metric("trace.overhead_pct",
                (Median(default_ms) / Median(untraced_ms) - 1.0) * 100.0, "%");
  return 0;
}

}  // namespace

int RunAnalyze1m(const Options& options, Tracer& tracer, Result& result) {
  const std::string capture_path = options.work_dir + "/analyze_1m.hwpb";
  const std::string names_path = options.work_dir + "/analyze_1m.names";

  // Set-up, five times (once in the traced run): simulate, encode and write
  // the capture and the names file. The untraced run does it in a child
  // process so this process stays small and the tool runs it forks measure
  // only their own peak RSS.
  std::vector<double> setup_ms;
  SimCounts counts;
  for (int k = 0; k < (options.trace ? 1 : 5); ++k) {
    bool ok = false;
    if (options.trace) {
      CaptureRun run;
      ok = CaptureStreamOnce(options.seed, capture_path, names_path,
                             /*tamper=*/false, tracer, result, &run);
      counts = run.counts;
    } else {
      std::string out;
      std::string err;
      ToolUsage usage;
      const int rc = RunTool({"/proc/self/exe", "--make-capture", capture_path,
                              names_path, "--seed", std::to_string(options.seed)},
                             &out, &err, &usage);
      setup_ms.push_back(usage.cpu_ms);
      unsigned long long events = 0;
      unsigned long long bytes = 0;
      ok = rc == 0 && std::sscanf(out.c_str(), "events=%llu bytes=%llu", &events,
                                  &bytes) == 2;
      counts.events = events;
      counts.capture_bytes = bytes;
    }
    result.Check("analyze.setup_capture_ok", ok);
    if (!ok) {
      return 1;
    }
  }
  if (options.tamper) {
    // One flipped byte: the chunk CRC no longer matches, so the strict
    // decode must fail and every report check with it.
    std::string bytes;
    ReadFile(capture_path, &bytes);
    bytes[bytes.size() / 2] ^= 0x01;
    WriteFile(capture_path, bytes);
  }
  if (options.trace) {
    return Traced(options, capture_path, names_path, counts, tracer, result);
  }

  const std::string tool = options.tools_dir + "/hwprof_analyze";
  std::string reference;
  std::string err;
  const std::uint64_t jobs1_start = NowNs();
  const int jobs1_rc = RunTool({tool, capture_path, names_path, "--jobs", "1"},
                               &reference, &err, nullptr);
  const double jobs1_ms = MsSince(jobs1_start);
  result.Check("analyze.jobs1_exit_0", jobs1_rc == 0, err);
  const double events = static_cast<double>(counts.events);
  std::vector<double> run_ms;
  std::vector<double> cpu_ms;
  std::vector<double> rss_mb;
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(options.seconds * 1e9);
  // The first default run warms the page cache and is not timed.
  for (int i = -1; i < 3 || NowNs() < deadline; ++i) {
    std::string report;
    ToolUsage usage;
    const std::uint64_t start = NowNs();
    const int rc = RunTool({tool, capture_path, names_path}, &report, &err, &usage);
    const double ms = MsSince(start);
    bool ok = result.Check("analyze.exit_0", rc == 0, err);
    ok = result.Check("analyze.report_identical_to_jobs1", report == reference) && ok;
    ok = result.Check("analyze.no_anomalies",
                      err.empty() && report.find("anomalies") == std::string::npos) &&
         ok;
    result.Operation(ok);
    if (i >= 0) {
      run_ms.push_back(ms);
      cpu_ms.push_back(usage.cpu_ms);
      rss_mb.push_back(usage.peak_rss_mb);
    }
  }
  std::vector<double> events_per_s;
  std::vector<double> events_per_cpu_s;
  for (std::size_t i = 0; i < run_ms.size(); ++i) {
    events_per_s.push_back(events / (run_ms[i] / 1e3));
    events_per_cpu_s.push_back(events / (cpu_ms[i] / 1e3));
  }
  result.Report("analyze_events_per_s", Median(events_per_s), "1/s");
  result.Report("tool_runs", static_cast<double>(run_ms.size()), "count");
  result.Report("tool_ms_p50", Median(run_ms), "ms");
  result.Report("tool_cpu_ms_p50", Median(cpu_ms), "ms");
  result.Report("jobs1_tool_ms", jobs1_ms, "ms");
  result.Report("capture_events", events, "count");
  result.Report("default_jobs", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)), "count");
  result.Metric("setup_s", Median(setup_ms) / 1e3, "s");
  result.Metric("events_per_s", Median(events_per_cpu_s), "1/s");
  result.Metric("peak_rss_mb", Median(rss_mb), "MB");
  return 0;
}

}  // namespace hwbench
