// Figure 4: the real-time code path trace of the network receive test —
// ISAINTR -> weintr -> werint -> weread -> bcopy; ipintr -> in_cksum ->
// tcp_input; a context switch in; the resumed process finishing tsleep and
// allocating descriptors.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/analysis/decoder.h"
#include "src/analysis/trace_report.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

void BM_Fig4CodePath(benchmark::State& state) {
  for (auto _ : state) {
    Testbed tb;
    tb.Arm();
    RunNetworkReceive(tb, Sec(2), 64 * 1024, false);
    RawTrace raw = tb.StopAndUpload();
    DecodedTrace d = Decoder::Decode(raw, tb.tags());

    PaperHeader("Figure 4 — code path trace (network receive)",
                "one capture window of the saturating receive test");

    // Find a representative slice: the first ISAINTR that leads into the
    // full receive path, then print ~70 lines from there.
    std::size_t start = 0;
    for (std::size_t i = 0; i < d.steps.size(); ++i) {
      const TraceStep& step = d.steps[i];
      if (!step.is_exit && step.fn->name == "weintr") {
        start = i > 2 ? i - 2 : 0;
        break;
      }
    }
    TraceReportOptions opts;
    opts.max_lines = 70;
    // Print from `start` by reusing the formatter on a sub-range of steps.
    DecodedTrace view;
    view.start_time = d.start_time;
    view.end_time = d.end_time;
    view.steps.assign(d.steps.begin() + static_cast<std::ptrdiff_t>(start), d.steps.end());
    std::printf("%s\n", TraceReport::Format(view, opts).c_str());

    // The headline per-call numbers the figure shows.
    auto avg_net = [&](const char* name) {
      const FuncStats* f = d.Stats(name);
      return f != nullptr ? static_cast<double>(ToWholeUsec(f->AvgNet())) : 0.0;
    };
    PaperRowF("ipintr net per call", 55.0, avg_net("ipintr"), "us");
    PaperRowF("tcp_input net per call", 92.0, avg_net("tcp_input"), "us");
    PaperRowF("in_pcblookup per call", 9.0, avg_net("in_pcblookup"), "us");
    PaperRowF("splx per call", 3.5, avg_net("splx"), "us");
    PaperRowF("weintr net per call", 50.0, avg_net("weintr"), "us");
    state.counters["steps"] = static_cast<double>(d.steps.size());
  }
}
BENCHMARK(BM_Fig4CodePath)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hwprof

BENCHMARK_MAIN();
