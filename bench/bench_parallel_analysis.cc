// Parallel sharded analysis throughput: replays a Figure-3-scale streaming
// capture (the saturating network receive run far past the 16K one-shot
// RAM, drained bank by bank) through the StreamingDecoder (inline replay)
// and through the ParallelAnalyzer at 1/2/4/8 workers (1 is inline replay
// too; more shard the replay across a pool), reporting the
// wall-clock distribution, the speedup table and a machine-readable
// BENCH_parallel_analysis.json. Every parallel decode is checked
// byte-identical to the serial one before its time is counted.
//
// This is a genuine wall-clock microbenchmark of this repository's host
// code; the speedup at 8 workers depends on the cores the host actually
// has (a single-core container will honestly report ~1x).

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/decoder.h"
#include "src/analysis/parallel.h"
#include "src/analysis/summary.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

int Run() {
  TestbedConfig config;
  config.profiler.double_buffer = true;
  Testbed tb(config);
  tb.Arm();
  const StreamingRunResult run =
      RunStreamingNetworkReceive(tb, Sec(30), 2048 * 1024, Msec(50));

  PaperHeader("parallel sharded analysis (host tooling; no paper artefact)",
              "streamed Fig-3 capture decode, serial vs --jobs 1/2/4/8");
  std::printf("  capture: %llu events in %zu drained banks; host reports %u "
              "hardware thread(s)\n\n",
              static_cast<unsigned long long>(run.events_drained),
              run.chunks.size(), std::thread::hardware_concurrency());

  const StreamingOptions retain{.retain_structure = true};
  auto decode_serial = [&] {
    StreamingDecoder dec(tb.tags(), 24, 1'000'000, retain);
    for (const TraceChunk& chunk : run.chunks) {
      dec.FeedChunk(chunk);
    }
    return dec.Finish();
  };
  const std::string reference = Summary(decode_serial()).Format(0);
  constexpr int kRepeats = 9;
  BenchJson json("parallel_analysis");

  std::vector<double> serial_samples;
  for (int r = 0; r < kRepeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const DecodedTrace d = decode_serial();
    serial_samples.push_back(MsSince(start));
    if (Summary(d).Format(0) != reference) {
      std::printf("FAIL: serial decode is not deterministic\n");
      return 1;
    }
  }
  const BenchStats serial = ComputeStats(serial_samples);
  StatRow("serial StreamingDecoder", serial, "ms");
  json.Add("serial_decode_ms", serial, "ms");

  struct JobsResult {
    unsigned jobs;
    BenchStats stats;
  };
  std::vector<JobsResult> results;
  std::size_t shards = 0;
  for (unsigned jobs : {1u, 2u, 4u, 8u}) {
    std::vector<double> samples;
    for (int r = 0; r < kRepeats; ++r) {
      ParallelOptions opts;
      opts.jobs = jobs;
      const auto start = std::chrono::steady_clock::now();
      ParallelAnalyzer analyzer(tb.tags(), 24, 1'000'000, opts);
      for (const TraceChunk& chunk : run.chunks) {
        analyzer.FeedChunk(chunk);
      }
      const DecodedTrace d = analyzer.Finish();
      shards = analyzer.shards_planned();
      samples.push_back(MsSince(start));
      if (Summary(d).Format(0) != reference) {
        std::printf("FAIL: jobs=%u decode diverged from serial\n", jobs);
        return 1;
      }
    }
    JobsResult res{jobs, ComputeStats(samples)};
    char label[64];
    std::snprintf(label, sizeof(label), "ParallelAnalyzer --jobs %u", jobs);
    StatRow(label, res.stats, "ms");
    char metric[64];
    std::snprintf(metric, sizeof(metric), "parallel_decode_jobs%u_ms", jobs);
    json.Add(metric, res.stats, "ms");
    results.push_back(res);
  }

  std::printf("\n  sharded replay cut the capture into %zu shards\n", shards);
  json.AddScalar("shards_planned", static_cast<double>(shards), "shards");
  std::printf("  speedup vs serial (p50):\n");
  for (const JobsResult& res : results) {
    const double speedup = res.stats.p50 > 0.0 ? serial.p50 / res.stats.p50 : 0.0;
    std::printf("    jobs=%u  %.2fx\n", res.jobs, speedup);
    char metric[64];
    std::snprintf(metric, sizeof(metric), "speedup_jobs%u", res.jobs);
    json.AddScalar(metric, speedup, "x");
  }
  json.AddScalar("hardware_threads", std::thread::hardware_concurrency(), "threads");
  json.Write();
  return 0;
}

}  // namespace
}  // namespace hwprof

int main() { return hwprof::Run(); }
