#include "tools/export_main.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/analysis/decoder.h"
#include "src/analysis/export.h"
#include "src/analysis/parallel.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"
#include "src/profhw/smart_socket.h"

namespace hwprof {
namespace {

void AppendTraceDiags(const std::string& path,
                      const std::vector<TraceDiag>& diags,
                      std::string* message) {
  for (const TraceDiag& d : diags) {
    if (d.line > 0) {
      *message +=
          StrFormat("\n%s:%d: %s", path.c_str(), d.line, d.message.c_str());
    } else {
      *message += StrFormat("\n%s: %s", path.c_str(), d.message.c_str());
    }
  }
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// Decodes either capture flavour; inline and sharded replay are
// byte-identical by contract, so the caller's --jobs choice never shows in
// the export.
DecodedTrace DecodeWith(ParallelAnalyzer& engine, const RawTrace* raw,
                        const StreamCapture* stream, std::uint64_t corrupt_words) {
  engine.NoteCorruptWords(corrupt_words);
  if (raw != nullptr) {
    engine.NoteDropped(raw->dropped_events);
    engine.SetClockEnvelope(raw->capture_elapsed_ns);
    engine.Feed(raw->events);
    return engine.Finish(raw->overflowed);
  }
  const std::size_t chunks = stream->chunks.size();
  for (std::size_t i = 0; i < chunks; ++i) {
    engine.FeedChunk(stream->chunks[i]);
  }
  return engine.Finish(stream->truncated_tail);
}

}  // namespace

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
  unsigned jobs = 0;
  bool salvage = false;
  bool stats = false;
  bool telemetry = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      std::uint64_t value = 0;
      if (!ParseUint(argv[i + 1], &value)) {
        *error = StrFormat("--jobs needs a number, got '%s'", argv[i + 1]);
        return 2;
      }
      ++i;
      jobs = static_cast<unsigned>(value);
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

  std::string names_text;
  TagFile names;
  std::vector<TagDiag> names_diags;
  if (!ReadFileToString(names_path, &names_text) ||
      !TagFile::Parse(names_text, &names, &names_diags)) {
    *error = StrFormat("cannot parse names file '%s'", names_path.c_str());
    for (const TagDiag& d : names_diags) {
      *error += StrFormat("\n%s:%d: %s", names_path.c_str(), d.line,
                          d.message.c_str());
    }
    return 1;
  }

  // Auto-detect the capture flavour (and format) from the file's magic.
  CaptureFileInfo finfo;
  if (!DetectCaptureFile(capture_path, &finfo)) {
    // Unrecognisable header: fall through to the capture loader for its
    // detailed diagnostics (a missing file reports there too).
    finfo = CaptureFileInfo{};
  }
  const bool is_stream = finfo.is_stream;

  OBS_SPAN_BEGIN(load);
  RawTrace raw;
  StreamCapture stream;
  std::vector<TraceDiag> diags;
  std::uint64_t corrupt_words = 0;
  bool loaded;
  if (is_stream) {
    loaded = salvage
                 ? LoadStreamSalvage(capture_path, &stream, &diags,
                                     &corrupt_words)
                 : LoadStream(capture_path, &stream, &diags);
  } else {
    loaded = salvage ? LoadCaptureSalvage(capture_path, &raw, &diags,
                                          &corrupt_words)
                     : LoadCapture(capture_path, &raw, &diags);
  }
  OBS_SPAN_END(load, "export.load");
  if (!loaded) {
    *error = StrFormat("cannot load capture '%s'", capture_path.c_str());
    AppendTraceDiags(capture_path, diags, error);
    return 1;
  }
  for (const TraceDiag& d : diags) {
    std::fprintf(stderr, "warning: %s:%d: %s (salvaged)\n",
                 capture_path.c_str(), d.line, d.message.c_str());
  }

  const RawTrace* raw_in = is_stream ? nullptr : &raw;
  const StreamCapture* stream_in = is_stream ? &stream : nullptr;
  const unsigned timer_bits = is_stream ? stream.timer_bits : raw.timer_bits;
  const std::uint64_t timer_hz =
      is_stream ? stream.timer_clock_hz : raw.timer_clock_hz;
  OBS_SPAN_BEGIN(decode);
  ParallelAnalyzer analyzer(names, timer_bits, timer_hz, ParallelOptions{.jobs = jobs});
  const DecodedTrace decoded = DecodeWith(analyzer, raw_in, stream_in, corrupt_words);
  OBS_SPAN_END(decode, "export.decode");

  // The telemetry tracks render only counters whose totals are independent
  // of the decode path chosen by --jobs: the per-decode anomaly ledger
  // (RecordDecodeTelemetry runs identically under both replay modes) and the
  // load-side socket counters. Engine-internal counters (decode.chunks,
  // parallel.shards, ...) differ between inline and sharded runs and would
  // break the export's byte-identity contract.
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
