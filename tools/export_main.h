// hwprof_export: convert a capture into standard visualization formats, as
// a reusable entry point (the binary's main() calls this; tests call it
// directly with temp files).

#ifndef HWPROF_TOOLS_EXPORT_MAIN_H_
#define HWPROF_TOOLS_EXPORT_MAIN_H_

#include <string>

namespace hwprof {

// Runs the exporter:
//   hwprof_export <capture-file> <names-file> [options]
// The capture may be a one-shot capture or a chunked stream, as text or
// hwpb (auto-detected by the CaptureReader).
// Options:
//   --format FMT     trace-event (default): Chrome/Perfetto trace-event
//                    JSON — open at ui.perfetto.dev or chrome://tracing.
//                    folded: folded-stack text for flamegraph.pl /
//                    speedscope, weighted by net nanoseconds.
//   --out FILE       write to FILE instead of stdout
//   --jobs N         accepted for old command lines and ignored: decode is
//                    single-threaded, so the export is the same at every N
//   --salvage        tolerate corrupt capture files (as hwprof_analyze)
//   --stats          append the pipeline-telemetry section to stderr
//   --telemetry      (trace-event only) add one "C" counter track per
//                    path-invariant pipeline counter (decode.anomaly.*,
//                    decode.finishes, socket.*) so anomaly totals are
//                    visible on the timeline
// Returns 0 on success; errors land in `*error` with file:line:reason
// diagnostics where the loaders provide them.
int ExportMain(int argc, const char* const* argv, std::string* error);

}  // namespace hwprof

#endif  // HWPROF_TOOLS_EXPORT_MAIN_H_
