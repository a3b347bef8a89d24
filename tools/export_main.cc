#include "tools/export_main.h"

#include <cstdio>
#include <fstream>

#include "src/analysis/decoder.h"
#include "src/analysis/export.h"
#include "src/base/mmap_file.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"
#include "tools/tool_common.h"

namespace hwprof {

int ExportMain(int argc, const char* const* argv, std::string* error) {
  if (argc < 3) {
    *error =
        "usage: hwprof_export <capture> <names> [--format trace-event|folded] "
        "[--out FILE] [--jobs N] [--salvage] [--stats] [--telemetry]";
    return 2;
  }
  const std::string capture_path = argv[1];
  const std::string names_path = argv[2];
  std::string format = "trace-event";
  std::string out_path;
  bool salvage = false;
  bool stats = false;
  bool telemetry = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--jobs") {
      if (!SkipJobsOption(argc, argv, &i, error)) {
        return 2;
      }
    } else if (arg == "--salvage") {
      salvage = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--telemetry") {
      telemetry = true;
    } else {
      *error = StrFormat("unknown option '%s'", arg.c_str());
      return 2;
    }
  }
  if (format != "trace-event" && format != "folded") {
    *error = StrFormat("unknown format '%s' (expected trace-event or folded)",
                       format.c_str());
    return 2;
  }
  if (telemetry && format != "trace-event") {
    *error = "--telemetry requires --format trace-event";
    return 2;
  }

  TagFile names;
  if (!LoadNamesFile(names_path, &names, error)) {
    return 1;
  }

  // Either kind and format. The trace-event JSON reads every step; the
  // folded stacks read only the calling-context trees.
  OBS_SPAN_BEGIN(load);
  MappedFile file;
  const bool opened = OpenCapture(capture_path, &file, error);
  OBS_SPAN_END(load, "export.load");
  if (!opened) {
    return 1;
  }
  OBS_SPAN_BEGIN(decode);
  DecodedTrace decoded;
  const StreamingOptions keep{.retain_structure = true,
                              .step_lines = format == "trace-event" ? kAllSteps : 0};
  const bool decoded_ok =
      DecodeCapture(capture_path, file.view(), names, keep, salvage, stderr, &decoded, error);
  OBS_SPAN_END(decode, "export.decode");
  if (!decoded_ok) {
    return 1;
  }

  // The telemetry tracks render only counters whose totals depend on the
  // capture alone: the per-decode anomaly ledger and the load-side socket
  // counters. Engine-internal counters (decode.chunks, ...) follow the feed
  // shape and would break the export's byte-identity contract.
  obs::Snapshot telemetry_counters;
  if (telemetry) {
    static constexpr std::string_view kInvariantPrefixes[] = {
        "decode.anomaly.", "decode.finishes", "socket."};
    for (obs::MetricValue& m : obs::GlobalSnapshot().metrics) {
      for (const std::string_view prefix : kInvariantPrefixes) {
        if (StartsWith(m.name, prefix)) {
          telemetry_counters.metrics.push_back(std::move(m));
          break;
        }
      }
    }
  }

  OBS_SPAN_BEGIN(render);
  const std::string rendered =
      format == "trace-event"
          ? ExportTraceEventJson(decoded,
                                 telemetry ? &telemetry_counters : nullptr)
          : ExportFoldedStacks(decoded);
  OBS_SPAN_END(render, "export.render");
  OBS_COUNT("export.bytes", rendered.size());

  if (out_path.empty()) {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::trunc | std::ios::binary);
    if (!out) {
      *error = StrFormat("cannot open output file '%s'", out_path.c_str());
      return 1;
    }
    out.write(rendered.data(),
              static_cast<std::streamsize>(rendered.size()));
    if (!out) {
      *error = StrFormat("short write to '%s'", out_path.c_str());
      return 1;
    }
  }
  if (stats) {
    std::fprintf(stderr, "-- pipeline telemetry --\n%s",
                 obs::GlobalSnapshot().FormatText(2).c_str());
  }
  return 0;
}

}  // namespace hwprof
