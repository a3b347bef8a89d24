// The three benchmark workloads and the capture generator they share.

#ifndef HWBENCH_BENCH_WORKLOADS_H_
#define HWBENCH_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "spans.h"

namespace hwbench {

// Simulated counts of one streaming capture; identical for a given seed.
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t dropped_events = 0;
  std::uint64_t drains = 0;
  std::uint64_t polls = 0;
  double virtual_ms = 0.0;
  std::uint64_t capture_bytes = 0;
  std::uint64_t digest = 0;  // FNV-1a 64 of the container (hwprofd's hash)

  bool operator==(const SimCounts&) const = default;
};

// What one capture_stream iteration measured.
struct CaptureRun {
  SimCounts counts;
  double setup_cpu_ms = 0.0;  // Testbed build
  double capture_ms = 0.0;  // simulation start until the container is written
  double capture_cpu_ms = 0.0;  // the same interval's CPU time
  double peak_rss_mb = 0.0;  // process peak once the container is written
};

// One ~1M-event saturating network receive on a double-buffered board with
// a 50 ms drain, encoded as a hwpb capture container and written to
// `capture_path` (plus the names file to `names_path` when non-empty). The
// seed picks the stream length within a fixed band. Records the
// correctness checks (receive integrity, stream-file I/O, the container
// decoding back to the drained events) in `result` and returns whether all
// passed; `tamper` flips one container byte before the decode-back check
// (smoke test).
bool CaptureStreamOnce(std::uint64_t seed, const std::string& capture_path,
                       const std::string& names_path, bool tamper, Tracer& tracer,
                       Result& result, CaptureRun* run);

// Reports the simulated counts as per-layer metrics (sim.*, capture.bytes).
void ReportSimCounts(const SimCounts& counts, Result& result);

int RunCaptureStream(const Options& options, Tracer& tracer, Result& result);
int RunAnalyze1m(const Options& options, Tracer& tracer, Result& result);
int RunIngestFleet(const Options& options, Tracer& tracer, Result& result);

}  // namespace hwbench

#endif  // HWBENCH_BENCH_WORKLOADS_H_
