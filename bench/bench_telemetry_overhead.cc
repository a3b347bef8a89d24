// Cost of the src/obs pipeline telemetry on the decode hot path: the same
// capture is decoded with telemetry live, with the runtime kill-switch off
// (SetEnabled(false)), and — when this binary is built in a
// -DHWPROF_NO_TELEMETRY tree — fully compiled out. EXPERIMENTS.md asserts
// the enabled-vs-disabled throughput gap stays under 3%; this benchmark
// produces the numbers backing that claim. BM_TelemetryPrimitives prices
// the individual macros so a regression can be attributed.

#include <benchmark/benchmark.h>

#include "src/analysis/decoder.h"
#include "src/analysis/parallel.h"
#include "src/obs/telemetry.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

struct CaptureFixture {
  CaptureFixture() {
    tb = std::make_unique<Testbed>();
    tb->Arm();
    RunNetworkReceive(*tb, Sec(5), 1 * kMiB, false);
    raw = tb->StopAndUpload();
  }
  std::unique_ptr<Testbed> tb;
  RawTrace raw;
};

CaptureFixture& SharedFixture() {
  static CaptureFixture fixture;
  return fixture;
}

DecodedTrace DecodeOnce(const CaptureFixture& f) { return Decoder::Decode(f.raw, f.tb->tags()); }

// The headline pair: identical decode work, telemetry live vs killed. In a
// -DHWPROF_NO_TELEMETRY build both collapse to the compiled-out cost.
void BM_DecodeTelemetryEnabled(benchmark::State& state) {
  CaptureFixture& f = SharedFixture();
  obs::SetEnabled(true);
  for (auto _ : state) {
    DecodedTrace d = DecodeOnce(f);
    benchmark::DoNotOptimize(d.per_function.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.raw.events.size()));
  state.SetLabel(obs::kTelemetryCompiledIn ? "telemetry=on"
                                           : "telemetry=compiled-out");
}
BENCHMARK(BM_DecodeTelemetryEnabled);

void BM_DecodeTelemetryDisabled(benchmark::State& state) {
  CaptureFixture& f = SharedFixture();
  obs::SetEnabled(false);
  for (auto _ : state) {
    DecodedTrace d = DecodeOnce(f);
    benchmark::DoNotOptimize(d.per_function.size());
  }
  obs::SetEnabled(true);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.raw.events.size()));
  state.SetLabel(obs::kTelemetryCompiledIn ? "telemetry=killed"
                                           : "telemetry=compiled-out");
}
BENCHMARK(BM_DecodeTelemetryDisabled);

// The parallel engine adds gauge and span traffic from every worker.
void BM_ParallelDecodeTelemetryEnabled(benchmark::State& state) {
  CaptureFixture& f = SharedFixture();
  obs::SetEnabled(true);
  for (auto _ : state) {
    DecodedTrace d = DecodeParallel(f.raw, f.tb->tags(),
                                    ParallelOptions{.jobs = 4});
    benchmark::DoNotOptimize(d.per_function.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.raw.events.size()));
}
BENCHMARK(BM_ParallelDecodeTelemetryEnabled);

void BM_ParallelDecodeTelemetryDisabled(benchmark::State& state) {
  CaptureFixture& f = SharedFixture();
  obs::SetEnabled(false);
  for (auto _ : state) {
    DecodedTrace d = DecodeParallel(f.raw, f.tb->tags(),
                                    ParallelOptions{.jobs = 4});
    benchmark::DoNotOptimize(d.per_function.size());
  }
  obs::SetEnabled(true);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.raw.events.size()));
}
BENCHMARK(BM_ParallelDecodeTelemetryDisabled);

// Per-primitive costs: one loop iteration = one macro hit on a hot cell.
void BM_TelemetryCounterHit(benchmark::State& state) {
  obs::SetEnabled(true);
  for (auto _ : state) {
    OBS_COUNT("bench.counter", 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterHit);

void BM_TelemetryHistogramHit(benchmark::State& state) {
  obs::SetEnabled(true);
  std::uint64_t ns = 1;
  for (auto _ : state) {
    OBS_HIST_NS("bench.hist", ns);
    ns = ns * 7 + 1;  // walk the bucket ladder
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryHistogramHit);

void BM_TelemetryScopedSpan(benchmark::State& state) {
  obs::SetEnabled(true);
  for (auto _ : state) {
    OBS_SCOPED_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryScopedSpan);

void BM_TelemetrySnapshot(benchmark::State& state) {
  obs::SetEnabled(true);
  OBS_COUNT("bench.snapshot_warm", 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::GlobalSnapshot().metrics.size());
  }
}
BENCHMARK(BM_TelemetrySnapshot);

}  // namespace
}  // namespace hwprof

BENCHMARK_MAIN();
