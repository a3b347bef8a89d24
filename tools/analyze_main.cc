#include "tools/analyze_main.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/analysis/callgraph.h"
#include "src/analysis/decoder.h"
#include "src/analysis/diff.h"
#include "src/analysis/grouping.h"
#include "src/analysis/histogram.h"
#include "src/analysis/process_report.h"
#include "src/analysis/summary.h"
#include "src/analysis/trace_report.h"
#include "src/base/mmap_file.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"
#include "src/profhw/capture_reader.h"
#include "src/profhw/smart_socket.h"
#include "tools/tool_common.h"

namespace hwprof {
namespace {

// Pipeline-telemetry section (--stats / --stats-json): everything src/obs
// accumulated over this process — load and decode.
void PrintTelemetry(bool text, bool json) {
  if (!text && !json) {
    return;
  }
  const obs::Snapshot snap = obs::GlobalSnapshot();
  if (text) {
    std::printf("-- pipeline telemetry %s--\n%s",
                obs::kTelemetryCompiledIn ? "" : "(compiled out) ",
                snap.FormatText(2).c_str());
  }
  if (json) {
    std::printf("{\"telemetry\": %s}\n", snap.FormatJson().c_str());
  }
}

// Machine-readable report: capture header, the typed anomaly counters, and
// every summary row, built only from the DecodedTrace.
std::string FormatJson(const DecodedTrace& decoded) {
  const Summary summary(decoded);
  auto u64 = [](std::uint64_t v) {
    return StrFormat("%llu", static_cast<unsigned long long>(v));
  };
  std::string out = "{\n";
  out += "  \"elapsed_us\": " + u64(summary.elapsed_us()) + ",\n";
  out += "  \"run_us\": " + u64(summary.run_us()) + ",\n";
  out += "  \"idle_us\": " + u64(summary.idle_us()) + ",\n";
  out += "  \"events\": " + u64(decoded.event_count) + ",\n";
  out += StrFormat("  \"truncated\": %s,\n", decoded.truncated ? "true" : "false");
  out += "  \"anomalies\": {\n";
  out += "    \"corrupt_words\": " + u64(decoded.corrupt_words) + ",\n";
  out += "    \"impossible_deltas\": " + u64(decoded.impossible_deltas) + ",\n";
  out += "    \"wrap_ambiguous_gaps\": " + u64(decoded.wrap_ambiguous_gaps) + ",\n";
  out += "    \"unaccounted_us\": " + u64(ToWholeUsec(decoded.unaccounted_time)) + ",\n";
  out += "    \"unknown_tags\": " + u64(decoded.unknown_tags) + ",\n";
  out += "    \"orphan_exits\": " + u64(decoded.orphan_exits) + ",\n";
  out += "    \"dropped_events\": " + u64(decoded.dropped_events) + ",\n";
  out += "    \"capture_gaps\": " + u64(decoded.capture_gaps) + ",\n";
  out += "    \"unclosed_entries\": " + u64(decoded.unclosed_entries) + ",\n";
  out += "    \"mid_trace_unclosed\": " + u64(decoded.MidTraceUnclosedEntries()) + "\n";
  out += "  },\n";
  out += "  \"functions\": [";
  bool first = true;
  for (const SummaryRow& row : summary.rows()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    AppendJsonString(row.name, &out);
    out += ", \"calls\": " + u64(row.calls);
    out += ", \"elapsed_us\": " + u64(row.elapsed_us);
    out += ", \"net_us\": " + u64(row.net_us);
    out += ", \"max_us\": " + u64(row.max_us);
    out += ", \"avg_us\": " + u64(row.avg_us);
    out += ", \"min_us\": " + u64(row.min_us);
    out += StrFormat(", \"pct_real\": %.2f, \"pct_net\": %.2f}", row.pct_real,
                     row.pct_net);
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

// Incremental analysis of a chunked stream file (either format): feeds each
// drained bank to the engine, printing a status line and a running Figure 3
// summary as it goes. `--poll N` re-reads the file N times total (with a
// short real sleep in between) so a still-appending writer can be tailed;
// new complete chunks are picked up where the previous pass stopped. A
// chunk the writer never finished is decoded as a truncated tail at the end.
int FollowMain(const char* path, const TagFile& names, int argc, const char* const* argv,
               std::string* error) {
  std::size_t rows = 20;
  int polls = 1;
  bool salvage = false;
  bool progress = false;
  bool stats = false;
  bool stats_json = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_number = [&](std::size_t fallback) -> std::size_t {
      if (i + 1 < argc) {
        std::uint64_t value = 0;
        if (ParseUint(argv[i + 1], &value)) {
          ++i;
          return static_cast<std::size_t>(value);
        }
      }
      return fallback;
    };
    if (arg == "--follow") {
      continue;
    } else if (arg == "--summary") {
      rows = next_number(20);
    } else if (arg == "--poll") {
      polls = static_cast<int>(next_number(1));
    } else if (arg == "--jobs") {
      next_number(0);  // accepted for old command lines; decode is single-threaded
    } else if (arg == "--salvage") {
      salvage = true;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else {
      *error = StrFormat("option '%s' is not available with --follow", arg.c_str());
      return 2;
    }
  }

  // One pass over the file as it stands now: maps and re-reads it whole (a
  // writer may still be appending) and keeps the chunks not fed by an
  // earlier pass. The salvage corrupt-word total is cumulative over the
  // whole file, so only the delta since the previous pass is kept.
  std::size_t fed = 0;
  std::uint64_t corrupt_noted = 0;
  unsigned timer_bits = 24;
  std::uint64_t timer_clock_hz = 1'000'000;
  std::vector<SoaChunk> fresh;
  bool truncated_tail = false;
  std::uint64_t corrupt_delta = 0;
  auto read_pass = [&](const char* verb) {
    MappedFile file;
    std::vector<TraceDiag> open_diags;
    const bool opened = OpenCaptureFile(path, &file, &open_diags);
    CaptureReader reader(file.view(), salvage);
    fresh.clear();
    if (opened && reader.ExpectKind(/*stream=*/true)) {
      SoaChunk chunk;
      for (std::size_t index = 0; reader.Next(&chunk); ++index) {
        if (index >= fed) {
          fresh.push_back(std::move(chunk));
        }
      }
    }
    if (!opened || reader.failed()) {
      *error = StrFormat("cannot %s stream file '%s'", verb, path);
      AppendTraceDiags(path, opened ? reader.diags() : open_diags, error);
      return false;
    }
    timer_bits = reader.timer_bits();
    timer_clock_hz = reader.timer_clock_hz();
    truncated_tail = reader.truncated_tail();
    const std::uint64_t corrupt_total = reader.corrupt_words();
    corrupt_delta = corrupt_total > corrupt_noted ? corrupt_total - corrupt_noted : 0;
    corrupt_noted = corrupt_total;
    return true;
  };
  if (!read_pass("load")) {
    return 1;
  }

  // --progress heartbeat: one line per drained chunk with decode rate
  // against this process's wall clock (the stream's own timestamps measure
  // the *target*, not us). Heartbeats are operator chatter, not report
  // output, so they go to stderr — piping stdout into a JSON consumer stays
  // machine-clean with progress on.
  const auto follow_start = std::chrono::steady_clock::now();
  auto heartbeat = [&](std::uint64_t events, std::uint64_t anomalies) {
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - follow_start)
            .count();
    const double rate = secs > 0 ? static_cast<double>(events) / secs : 0.0;
    std::fprintf(stderr,
                 "progress: %llu events, %llu anomalies, %.0f events/sec (%.1fs)\n",
                 static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(anomalies), rate, secs);
  };

  // The poll/feed loop: a status line with the lookahead backlog and a live
  // summary after every chunk. A torn tail chunk is held back until the last
  // pass and decoded then.
  StreamingDecoder decoder(names, timer_bits, timer_clock_hz);
  for (int pass = 0; pass < polls; ++pass) {
    if (pass > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      if (!read_pass("re-read")) {
        return 1;
      }
    }
    decoder.NoteCorruptWords(corrupt_delta);
    const std::size_t complete = fresh.size() - (truncated_tail && !fresh.empty() ? 1 : 0);
    for (std::size_t i = 0; i < complete; ++i, ++fed) {
      const SoaChunk& chunk = fresh[i];
      decoder.FeedChunk(chunk);
      std::printf(
          "chunk %zu: %zu events (%llu dropped before) | stream so far: %llu events, "
          "%llu dropped, %zu awaiting lookahead\n",
          fed, chunk.tags.size(), static_cast<unsigned long long>(chunk.dropped_before),
          static_cast<unsigned long long>(decoder.events_seen()),
          static_cast<unsigned long long>(decoder.dropped_events()), decoder.pending());
      const DecodedTrace so_far = decoder.SnapshotStats();
      if (progress) {
        heartbeat(decoder.events_seen(), so_far.AnomalyTotal());
      }
      std::printf("%s\n", Summary(so_far).Format(rows).c_str());
    }
  }
  const bool truncated = truncated_tail && !fresh.empty();
  if (truncated) {
    // The writer never finished this chunk; decode what made it to disk.
    decoder.FeedChunk(fresh.back());
    ++fed;
  }
  const DecodedTrace decoded = decoder.Finish(truncated);
  std::printf("end of stream: %zu chunks, %llu events, %llu dropped in %llu gaps%s\n", fed,
              static_cast<unsigned long long>(decoded.event_count),
              static_cast<unsigned long long>(decoded.dropped_events),
              static_cast<unsigned long long>(decoded.capture_gaps),
              truncated ? " (truncated tail)" : "");
  std::printf("%s\n", Summary(decoded).Format(rows).c_str());
  PrintTelemetry(stats, stats_json);
  return 0;
}

// `hwprof_analyze --diff A B <names>`: decode both captures (any format)
// against the shared names file and print the three-granularity
// regression report. Exit codes: 0 no regression, 3 at least one gated row
// regressed beyond --noise-pct (and the --quantum-us floor), 1 load
// failure, 2 usage. `--gate net` demotes the per-call-edge section to
// advisory for cross-variant comparisons.
int DiffMain(int argc, const char* const* argv, std::string* error) {
  if (argc < 5) {
    *error =
        "usage: hwprof_analyze --diff <baseline> <candidate> <names> "
        "[--noise-pct P] [--quantum-us Q] [--gate all|net] [--json] "
        "[--jobs N] [--salvage]";
    return 2;
  }
  const std::string path_a = argv[2];
  const std::string path_b = argv[3];
  const std::string names_path = argv[4];

  double noise_pct = 0.0;
  double quantum_us = 0.0;
  bool gate_edges = true;
  bool json = false;
  bool salvage = false;
  for (int i = 5; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--noise-pct" && i + 1 < argc) {
      const char* text = argv[++i];
      char* end = nullptr;
      noise_pct = std::strtod(text, &end);
      if (end == text || *end != '\0' || noise_pct < 0.0) {
        *error = StrFormat("--noise-pct needs a non-negative percentage, got '%s'", text);
        return 2;
      }
    } else if (arg == "--quantum-us" && i + 1 < argc) {
      const char* text = argv[++i];
      char* end = nullptr;
      quantum_us = std::strtod(text, &end);
      if (end == text || *end != '\0' || quantum_us < 0.0) {
        *error = StrFormat("--quantum-us needs a non-negative value, got '%s'", text);
        return 2;
      }
    } else if (arg == "--gate" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "all") {
        gate_edges = true;
      } else if (value == "net") {
        gate_edges = false;
      } else {
        *error = StrFormat("--gate must be all or net, got '%s'", value.c_str());
        return 2;
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      // Accepted for old command lines; decode is single-threaded.
      std::uint64_t value = 0;
      if (!ParseUint(argv[++i], &value)) {
        *error = StrFormat("--jobs needs a number, got '%s'", argv[i]);
        return 2;
      }
    } else if (arg == "--salvage") {
      salvage = true;
    } else {
      *error = StrFormat("unknown option '%s' for --diff", arg.c_str());
      return 2;
    }
  }

  TagFile names;
  if (!LoadNamesFile(names_path, &names, error)) {
    return 1;
  }
  // The per-call-edge section reads the calling-context trees.
  auto decode = [&](const std::string& path, DecodedTrace* decoded) {
    MappedFile file;
    return OpenCapture(path, &file, error) &&
           DecodeCapture(path, file.view(), names,
                         StreamingOptions{.retain_structure = true, .step_lines = 0}, salvage,
                         stdout, decoded, error);
  };
  DecodedTrace baseline;
  DecodedTrace candidate;
  if (!decode(path_a, &baseline) || !decode(path_b, &candidate)) {
    return 1;
  }

  const TraceDiff diff(baseline, candidate, names.GroupsByName(),
                       DiffOptions{.noise_pct = noise_pct,
                                   .quantum_us = quantum_us,
                                   .gate_edges = gate_edges});
  std::printf("%s", json ? diff.FormatJson().c_str() : diff.FormatText().c_str());
  return diff.HasRegression() ? 3 : 0;
}

}  // namespace

int AnalyzeMain(int argc, const char* const* argv, std::string* error) {
  if (argc >= 2 && std::string(argv[1]) == "--diff") {
    return DiffMain(argc, argv, error);
  }
  if (argc < 3) {
    *error =
        "usage: hwprof_analyze <capture> <names> [--summary N] [--trace N] "
        "[--callgraph N] [--histogram FN] [--groups] [--spl] [--json] "
        "[--salvage] [--jobs N] [--stats] [--stats-json] [--progress] | "
        "<stream> <names> "
        "--follow [--summary N] [--poll N] [--jobs N] [--salvage] "
        "[--progress] [--stats] [--stats-json] | --diff <baseline> "
        "<candidate> <names> [--noise-pct P] [--quantum-us Q] "
        "[--gate all|net] [--json] [--jobs N] [--salvage]";
    return 2;
  }

  TagFile names;
  std::string names_error;
  const bool have_names = LoadNamesFile(argv[2], &names, &names_error);

  for (int i = 3; i < argc; ++i) {
    if (std::string(argv[i]) == "--follow") {
      if (!have_names) {
        *error = names_error;
        return 1;
      }
      return FollowMain(argv[1], names, argc, argv, error);
    }
  }

  // `--salvage` and what the reports read are resolved before decoding; the
  // options are consumed by the report loop below. When every report is
  // stats-only the decode keeps no structure. `--callgraph`, `--histogram`
  // and `--processes` read the calling-context trees, and `--trace N` the
  // steps of its first N lines (every step for N = 0).
  bool salvage = false;
  StreamingOptions keep{.retain_structure = false, .step_lines = 0};
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--salvage") {
      salvage = true;
    } else if (arg == "--callgraph" || arg == "--processes") {
      keep.retain_structure = true;
    } else if (arg == "--histogram") {
      keep.retain_structure = true;
      ++i;  // the function name
    } else if (arg == "--trace") {
      keep.retain_structure = true;
      std::uint64_t lines = 60;  // the report loop's default
      if (i + 1 < argc && ParseUint(argv[i + 1], &lines)) {
        ++i;
      }
      keep.step_lines =
          lines == 0 ? kAllSteps : std::max(keep.step_lines, static_cast<std::size_t>(lines));
    }
  }

  DecodedTrace decoded;
  {
    // Report an unreadable capture before any names-file problem.
    MappedFile file;
    if (!OpenCapture(argv[1], &file, error)) {
      return 1;
    }
    if (!have_names) {
      *error = names_error;
      return 1;
    }
    if (!DecodeCapture(argv[1], file.view(), names, keep, salvage, stdout, &decoded, error)) {
      return 1;
    }
  }
  if (decoded.unknown_tags > 0) {
    // Warning chatter goes to stderr: `--json | jq` must keep parsing.
    std::fprintf(stderr,
                 "warning: %llu events carried tags missing from the names file\n",
                 static_cast<unsigned long long>(decoded.unknown_tags));
  }

  bool did_something = false;
  bool stats = false;
  bool stats_json = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_number = [&](std::size_t fallback) -> std::size_t {
      if (i + 1 < argc) {
        std::uint64_t value = 0;
        if (ParseUint(argv[i + 1], &value)) {
          ++i;
          return static_cast<std::size_t>(value);
        }
      }
      return fallback;
    };
    if (arg == "--summary") {
      std::printf("%s\n", Summary(decoded).Format(next_number(20)).c_str());
      did_something = true;
    } else if (arg == "--trace") {
      TraceReportOptions opts;
      opts.max_lines = next_number(60);
      std::printf("%s\n", TraceReport::Format(decoded, opts).c_str());
      did_something = true;
    } else if (arg == "--callgraph") {
      std::printf("%s", CallGraph(decoded).Format(decoded, next_number(10)).c_str());
      did_something = true;
    } else if (arg == "--histogram") {
      if (i + 1 >= argc) {
        *error = "--histogram needs a function name";
        return 2;
      }
      const std::string fn = argv[++i];
      std::printf("%s\n", Histogram::ForFunction(decoded, fn).Format(fn).c_str());
      did_something = true;
    } else if (arg == "--processes") {
      ProcessReport report(decoded);
      std::printf("%s\n", report.Format(decoded).c_str());
      did_something = true;
    } else if (arg == "--spl") {
      Grouping grouping(decoded, Grouping::SplGroup(decoded));
      std::printf("%s\n", grouping.Format().c_str());
      did_something = true;
    } else if (arg == "--groups") {
      // Per-abstraction profile from the names file's group= annotations.
      Grouping grouping(decoded, names.GroupsByName());
      std::printf("%s\n", grouping.Format().c_str());
      did_something = true;
    } else if (arg == "--json") {
      std::printf("%s", FormatJson(decoded).c_str());
      did_something = true;
    } else if (arg == "--stats") {
      stats = true;
      did_something = true;
    } else if (arg == "--stats-json") {
      stats_json = true;
      did_something = true;
    } else if (arg == "--progress") {
      // One post-decode heartbeat on stderr (batch decodes have no chunk
      // loop to beat along with); stdout report output is untouched.
      std::fprintf(stderr, "progress: %llu events, %llu anomalies (decoded)\n",
                   static_cast<unsigned long long>(decoded.event_count),
                   static_cast<unsigned long long>(decoded.AnomalyTotal()));
    } else if (arg == "--jobs") {
      next_number(0);  // accepted for old command lines; decode is single-threaded
    } else if (arg == "--salvage") {
      // already consumed before the load
    } else {
      *error = StrFormat("unknown option '%s'", arg.c_str());
      return 2;
    }
  }
  if (!did_something) {
    std::printf("%s\n", Summary(decoded).Format(20).c_str());
  }
  PrintTelemetry(stats, stats_json);
  return 0;
}

}  // namespace hwprof
