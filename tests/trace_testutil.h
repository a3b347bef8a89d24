// Shared helpers for the differential-equivalence tests: a small names
// file, adversarial fuzz-trace generators, and fingerprints that render
// EVERY observable of a decoded trace — every report plus every counter and
// attribution map — to one comparable string. The same capture, fed in any
// shape and decoded in any mode, must produce byte-identical fingerprints of
// what that mode keeps; the fuzz suites assert exactly that.

#ifndef HWPROF_TESTS_TRACE_TESTUTIL_H_
#define HWPROF_TESTS_TRACE_TESTUTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/analysis/decoder.h"
#include "src/analysis/export.h"
#include "src/analysis/histogram.h"
#include "src/analysis/process_report.h"
#include "src/analysis/summary.h"
#include "src/analysis/trace_report.h"
#include "src/base/assert.h"
#include "src/base/rng.h"
#include "src/instr/tag_file.h"
#include "src/profhw/raw_trace.h"

namespace hwprof {

inline const TagFile& MakeNames() {
  static const TagFile* names = [] {
    auto* file = new TagFile();
    HWPROF_CHECK(TagFile::Parse(
        "a/100\n"
        "b/102\n"
        "c/104\n"
        "d/106\n"
        "swtch/200!\n"
        "idle_swtch/202!\n"
        "MARK/300=\n"
        "POINT/302=\n",
        file));
    return file;
  }();
  return *names;
}

template <typename Map>
std::string DumpMap(const Map& m) {
  std::string out;
  for (const auto& [k, v] : m) {
    out += "{";
    if constexpr (std::is_same_v<std::decay_t<decltype(k)>, std::string>) {
      out += k;
    } else {
      out += std::to_string(k);
    }
    out += ":";
    out += std::to_string(v);
    out += "}";
  }
  return out;
}

// Per-function stats and idle time only.
inline std::string FunctionsFingerprint(const DecodedTrace& d) {
  std::string out = "idle=" + std::to_string(d.idle_time);
  for (const auto& [name, f] : d.per_function) {
    out += "\n" + name + ":" + std::to_string(f.calls) + "/" + std::to_string(f.net) +
           "/" + std::to_string(f.elapsed) + "/" + std::to_string(f.min_net) + "/" +
           std::to_string(f.max_net) + "/" + std::to_string(f.context_switch);
  }
  return out;
}

// Everything a decode without retained structure must still get right: the
// summary, every per-function stat, idle time and every anomaly counter.
inline std::string StatsFingerprint(const DecodedTrace& d) {
  std::string out = Summary(d).Format(0) + "\n" + FunctionsFingerprint(d);
  out += "\n|events=" + std::to_string(d.event_count);
  out += "|truncated=" + std::to_string(d.truncated);
  out += "|start=" + std::to_string(d.start_time);
  out += "|end=" + std::to_string(d.end_time);
  out += "|stacks=" + std::to_string(d.stacks.size());
  out += "|unknown=" + std::to_string(d.unknown_tags) + DumpMap(d.unknown_tag_counts);
  out += "|orphan=" + std::to_string(d.orphan_exits) + DumpMap(d.orphan_exit_counts);
  out += "|preopen=" + DumpMap(d.preopen_exit_counts);
  out += "|unclosed=" + std::to_string(d.unclosed_entries) + DumpMap(d.unclosed_entry_counts);
  out += "|trunc_entries=" + DumpMap(d.truncated_entry_counts);
  out += "|dropped=" + std::to_string(d.dropped_events);
  out += "|gaps=" + std::to_string(d.capture_gaps);
  out += "|corrupt=" + std::to_string(d.corrupt_words);
  out += "|impossible=" + std::to_string(d.impossible_deltas);
  out += "|wrap_ambiguous=" + std::to_string(d.wrap_ambiguous_gaps);
  out += "|unaccounted=" + std::to_string(d.unaccounted_time);
  return out;
}

// Everything a decode that kept the calling-context trees but no steps must
// get right: the stats, plus every report read from the trees.
inline std::string ContextsFingerprint(const DecodedTrace& d) {
  std::string out = StatsFingerprint(d);
  out += "\n--callgraph--\n" + CallGraph(d).Format(d);
  out += "\n--processes--\n" + ProcessReport(d).Format(d);
  out += "\n--histograms--\n";
  for (const auto& [name, stats] : d.per_function) {
    out += Histogram::ForFunction(d, name).Format(name);
  }
  out += "\n--folded--\n" + ExportFoldedStacks(d);
  return out;
}

// Every observable of a decode that kept everything.
inline std::string Fingerprint(const DecodedTrace& d) {
  std::string out = ContextsFingerprint(d);
  out += "\n--trace--\n" + TraceReport::Format(d);
  out += "\n--trace-event--\n" + ExportTraceEventJson(d);
  out += "\n|steps=" + std::to_string(d.steps.size());
  return out;
}

// The decode modes a caller can ask for: stats only, the context trees, the
// trees plus the steps of the first 1 or 9 trace lines, and everything.
inline constexpr StreamingOptions kDecodeModes[] = {
    {.retain_structure = false, .step_lines = 0},
    {.retain_structure = true, .step_lines = 0},
    {.retain_structure = true, .step_lines = 1},
    {.retain_structure = true, .step_lines = 9},
    {.retain_structure = true, .step_lines = kAllSteps},
};

inline std::string ModeName(const StreamingOptions& keep) {
  if (!keep.retain_structure) {
    return "stats mode";
  }
  if (keep.step_lines == kAllSteps) {
    return "steps mode";
  }
  return "contexts mode, " + std::to_string(keep.step_lines) + " trace lines";
}

// Every report a decode made with `keep` can render.
inline std::string ModeFingerprint(const DecodedTrace& d, const StreamingOptions& keep) {
  if (!keep.retain_structure) {
    return StatsFingerprint(d);
  }
  if (keep.step_lines == kAllSteps) {
    return Fingerprint(d);
  }
  std::string out = ContextsFingerprint(d);
  if (keep.step_lines > 0) {
    out += "\n--trace--\n" + TraceReport::Format(d, {.max_lines = keep.step_lines});
  }
  return out;
}

// Decodes with `decode(keep)` in every mode and checks each against
// `reference` (a decode that kept everything) on every report the mode can
// render; a mode keeps no structure it was not asked for.
template <typename Decode>
void ExpectEveryModeAgrees(const DecodedTrace& reference, Decode decode,
                           const std::string& what) {
  for (const StreamingOptions& keep : kDecodeModes) {
    const DecodedTrace d = decode(keep);
    ASSERT_EQ(ModeFingerprint(d, keep), ModeFingerprint(reference, keep))
        << what << ", " << ModeName(keep);
    if (keep.step_lines == 0) {
      EXPECT_TRUE(d.steps.empty()) << what << ", " << ModeName(keep);
    }
    if (!keep.retain_structure) {
      for (const auto& stack : d.stacks) {
        EXPECT_TRUE(stack->root->children.empty()) << what << ", " << ModeName(keep);
      }
    }
  }
}

inline RawTrace Trace(std::initializer_list<RawEvent> events) {
  RawTrace raw;
  raw.events = events;
  return raw;
}

// Adversarial random trace with anomaly injection: unbalanced nesting,
// context switches (two distinct switch functions), inline markers, unknown
// tags, spurious exits, near-wrap gaps.
inline RawTrace FuzzTrace(std::uint64_t seed, int length) {
  Rng rng(seed);
  RawTrace raw;
  std::uint32_t now = 0;
  std::vector<std::uint16_t> stack;
  for (int i = 0; i < length; ++i) {
    now += rng.NextBool(0.02)
               ? (1u << 24) - 5 + static_cast<std::uint32_t>(rng.NextBelow(10))
               : static_cast<std::uint32_t>(1 + rng.NextBelow(200));
    const double roll = static_cast<double>(rng.NextBelow(1000)) / 1000.0;
    if (roll < 0.04) {
      raw.events.push_back(
          {static_cast<std::uint16_t>(300 + 2 * rng.NextBelow(2)), now});
    } else if (roll < 0.07) {
      raw.events.push_back({999, now});  // unknown tag
    } else if (roll < 0.11) {
      // Spurious exit for a function that may not be open (orphan).
      raw.events.push_back(
          {static_cast<std::uint16_t>(101 + 2 * rng.NextBelow(4)), now});
    } else if (roll < 0.22) {
      // Context switch entry/exit pair with an idle gap.
      const auto sw = static_cast<std::uint16_t>(200 + 2 * rng.NextBelow(2));
      raw.events.push_back({sw, now});
      now += static_cast<std::uint32_t>(1 + rng.NextBelow(500));
      raw.events.push_back({static_cast<std::uint16_t>(sw + 1), now});
    } else if (roll < 0.24) {
      // Bare switch exit: orphan swtch resolution / fresh-context path.
      raw.events.push_back({201, now});
    } else if (stack.size() < 8 && (stack.empty() || rng.NextBool(0.55))) {
      const auto tag = static_cast<std::uint16_t>(100 + 2 * rng.NextBelow(4));
      stack.push_back(tag);
      raw.events.push_back({tag, now});
    } else {
      const std::uint16_t tag = stack.back();
      stack.pop_back();
      raw.events.push_back({static_cast<std::uint16_t>(tag + 1), now});
    }
  }
  for (auto& e : raw.events) {
    e.timestamp &= (1u << 24) - 1;
  }
  raw.overflowed = (seed % 3 == 0);  // exercise the truncation flag too
  return raw;
}

// Feeds `raw` to every one of `engines` the way a capture arrives in
// practice: with `split_seed` 0 as one structure-of-arrays column pair (the
// binary container's path), otherwise in seeded random slices that alternate
// between the RawEvent and structure-of-arrays entry points. Calls
// `after_slice(n)` once every engine has been fed each slice, with `n` the
// events fed so far.
template <typename AfterSlice, typename... Engines>
void FeedSlices(const RawTrace& raw, std::uint64_t split_seed, AfterSlice after_slice,
                Engines&... engines) {
  std::vector<std::uint16_t> tags;
  std::vector<std::uint32_t> timestamps;
  for (const RawEvent& e : raw.events) {
    tags.push_back(e.tag);
    timestamps.push_back(e.timestamp);
  }
  (engines.NoteDropped(raw.dropped_events), ...);
  (engines.SetClockEnvelope(raw.capture_elapsed_ns), ...);
  Rng rng(split_seed);
  const std::size_t n = raw.events.size();
  for (std::size_t at = 0; at < n;) {
    const std::size_t len =
        split_seed == 0 ? n : std::min(n - at, std::size_t{1} + rng.NextBelow(97));
    if (split_seed == 0 || rng.NextBool(0.5)) {
      (engines.FeedSoA(tags.data() + at, timestamps.data() + at, len), ...);
    } else {
      (engines.Feed(raw.events.data() + at, len), ...);
    }
    at += len;
    after_slice(at);
  }
}

// FeedSlices for one engine, then Finish.
template <typename Engine>
DecodedTrace FeedShaped(Engine& engine, const RawTrace& raw, std::uint64_t split_seed) {
  FeedSlices(raw, split_seed, [](std::size_t) {}, engine);
  return engine.Finish(raw.overflowed);
}

// The feed-shape and decode-mode equivalence oracle. The batch decode is
// the reference; every other way of running the engine must match it:
//  * every decode mode (stats, contexts, bounded steps, every step), fed one
//    SoA column pair or a seeded random mix of RawEvent and SoA slices, with
//    and without timer glitches, on every report the mode can render;
//  * the running stats snapshot: after every fed slice, the stats-only
//    decoder's SnapshotStats (open calls with their time to date) must match
//    the retaining decoder's and, whenever nothing awaits lookahead, carry
//    the per-function stats of a batch decode of the prefix fed so far
//    (which closes the open calls at the last event).
inline void ExpectFeedShapesAgree(const RawTrace& raw, const TagFile& names,
                                  const std::string& what, std::uint64_t split_seed = 1) {
  // Every feed shape also sees the trace with timer glitches (a stored bit
  // above the counter mask), which each must salvage identically.
  RawTrace glitched = raw;
  for (std::size_t i = 0; i < glitched.events.size(); i += 37) {
    glitched.events[i].timestamp |= 1u << 30;
  }
  const RawTrace* const traces[] = {&raw, &glitched};
  for (const RawTrace* trace : traces) {
    const DecodedTrace batch = Decoder::Decode(*trace, names);
    const std::string label = what + (trace == &glitched ? " (glitched)" : "");
    for (const std::uint64_t seed : {std::uint64_t{0}, split_seed}) {
      ExpectEveryModeAgrees(
          batch,
          [&](const StreamingOptions& keep) {
            StreamingDecoder engine(names, trace->timer_bits, trace->timer_clock_hz, keep);
            return FeedShaped(engine, *trace, seed);
          },
          label + ", split seed " + std::to_string(seed));
      StreamingDecoder retaining(names, trace->timer_bits, trace->timer_clock_hz,
                                 StreamingOptions{.retain_structure = true});
      StreamingDecoder bounded(names, trace->timer_bits, trace->timer_clock_hz,
                               StreamingOptions{.retain_structure = false});
      std::size_t slice = 0;
      std::string first_mismatch;
      FeedSlices(
          *trace, seed,
          [&](std::size_t fed) {
            const DecodedTrace snap = bounded.SnapshotStats();
            const std::string folded = StatsFingerprint(snap);
            const std::string retained = StatsFingerprint(retaining.SnapshotStats());
            if (folded != retained && first_mismatch.empty()) {
              first_mismatch = "slice " + std::to_string(slice) + ":\n" + folded +
                               "\nretaining:\n" + retained;
            }
            if (bounded.pending() == 0 && first_mismatch.empty()) {
              RawTrace prefix = *trace;
              prefix.events.resize(fed);
              const std::string want = FunctionsFingerprint(Decoder::Decode(prefix, names));
              if (FunctionsFingerprint(snap) != want) {
                first_mismatch = "slice " + std::to_string(slice) + ":\n" +
                                 FunctionsFingerprint(snap) + "\nprefix decode:\n" + want;
              }
            }
            ++slice;
          },
          retaining, bounded);
      ASSERT_EQ(first_mismatch, "") << label << " SnapshotStats, split seed " << seed;
    }
  }
}

}  // namespace hwprof

#endif  // HWPROF_TESTS_TRACE_TESTUTIL_H_
