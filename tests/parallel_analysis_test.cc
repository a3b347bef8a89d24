// Feed-shape and decode-mode oracle for the one decode engine: for ANY
// capture — hand-built context-switch traces, fuzzed adversarial traces with
// anomaly injection, chunked streaming feeds with capture gaps, and a real
// workload capture — a decode fed in chunks must be byte-identical to the
// one-shot batch Decoder, and every decode mode (stats only, the
// calling-context trees, bounded steps, every step) must agree with it on
// every report that mode can render: summary, call graph, process report,
// histograms, folded stacks, code-path trace, trace-event export, and every
// anomaly/truncation counter, not just the headline numbers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/base/rng.h"
#include "src/instr/tag_file.h"
#include "src/profhw/raw_trace.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"
#include "tests/trace_testutil.h"

namespace hwprof {
namespace {

// Context-switch-heavy reference traces: suspended stacks, lookahead
// resolution, orphans, unknown tags, truncation — the cases where chunk
// boundaries and decode modes have to reproduce cross-event state exactly.
std::vector<RawTrace> ReferenceTraces() {
  std::vector<RawTrace> traces;
  traces.push_back(Trace({{100, 10}, {101, 60}}));
  traces.push_back(Trace({{100, 0}, {300, 40}, {101, 100}}));
  traces.push_back(Trace({{100, 0}, {200, 20}, {201, 100}, {102, 110}, {103, 150},
                          {200, 160}, {201, 220}, {101, 230}}));
  traces.push_back(Trace({{100, 0}, {200, 10}, {102, 30}, {103, 60}, {201, 100},
                          {101, 120}}));
  traces.push_back(Trace({{100, 0}, {102, 10}, {200, 20}, {201, 30}, {104, 40},
                          {105, 1030}, {200, 1040}, {201, 1100}, {103, 1110},
                          {101, 1120}}));
  traces.push_back(Trace({{103, 10}}));                       // orphan exit
  traces.push_back(Trace({{100, 0}, {999, 10}, {101, 20}}));  // unknown tag
  RawTrace truncated = Trace({{100, 0}, {102, 10}});
  truncated.overflowed = true;
  traces.push_back(truncated);
  // A suspended process's exit (a) arrives inside another process's idle
  // window, so the swtch exit that follows closes the idle frame of a stack
  // that is no longer the running one.
  traces.push_back(Trace({{100, 0}, {200, 10}, {201, 20}, {102, 30}, {200, 40},
                          {101, 50}, {201, 60}, {103, 70}}));
  // Two processes ping-ponging: many activity blocks to shard.
  {
    RawTrace t;
    std::uint32_t now = 0;
    for (int i = 0; i < 12; ++i) {
      t.events.push_back({100, now});
      t.events.push_back({200, now += 5});
      t.events.push_back({201, now += 50});
      t.events.push_back({101, now += 7});
      now += 3;
    }
    traces.push_back(t);
  }
  return traces;
}

TEST(FeedShape, ReferenceTracesAgreeInEveryShapeAndMode) {
  const TagFile& names = MakeNames();
  int i = 0;
  for (const RawTrace& raw : ReferenceTraces()) {
    ExpectFeedShapesAgree(raw, names, "reference trace " + std::to_string(i++));
  }
}

class FeedShapeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FeedShapeFuzzTest, FuzzedTraceAgreesInEveryShapeAndMode) {
  const TagFile& names = MakeNames();
  const RawTrace raw = FuzzTrace(GetParam(), 800);
  ExpectFeedShapesAgree(raw, names, "seed " + std::to_string(GetParam()), GetParam());
}

TEST_P(FeedShapeFuzzTest, ChunkedFeedWithDropsMatchesOneShot) {
  const TagFile& names = MakeNames();
  Rng rng(GetParam() * 6151 + 3);
  const RawTrace raw = FuzzTrace(GetParam() + 500, 500);

  // Random chunking with occasional capture gaps. A drop changes only the
  // gap accounting, so the one-shot feed notes each chunk's drops and then
  // takes every event at once.
  std::vector<TraceChunk> chunks;
  std::size_t at = 0;
  while (at < raw.events.size()) {
    TraceChunk chunk;
    chunk.dropped_before = rng.NextBool(0.15) ? 1 + rng.NextBelow(9) : 0;
    const std::size_t n =
        std::min(raw.events.size() - at, std::size_t{1} + rng.NextBelow(120));
    chunk.events.assign(raw.events.begin() + at, raw.events.begin() + at + n);
    at += n;
    chunks.push_back(std::move(chunk));
  }
  StreamingDecoder one_shot(names, raw.timer_bits, raw.timer_clock_hz,
                            StreamingOptions{.retain_structure = true});
  for (const TraceChunk& chunk : chunks) {
    one_shot.NoteDropped(chunk.dropped_before);
  }
  one_shot.Feed(raw.events);
  const DecodedTrace reference = one_shot.Finish(raw.overflowed);
  ExpectEveryModeAgrees(
      reference,
      [&](const StreamingOptions& keep) {
        StreamingDecoder chunked(names, raw.timer_bits, raw.timer_clock_hz, keep);
        for (const TraceChunk& chunk : chunks) {
          chunked.FeedChunk(chunk);
        }
        EXPECT_EQ(chunked.events_seen(), reference.event_count);
        EXPECT_EQ(chunked.dropped_events(), reference.dropped_events);
        return chunked.Finish(raw.overflowed);
      },
      "chunked, seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeedShapeFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u,
                                           11u, 12u, 13u, 21u, 34u, 42u, 55u, 89u,
                                           144u, 233u, 1993u, 4096u));

TEST(FeedShape, WorkloadCaptureAgreesInEveryShapeAndMode) {
  Testbed tb;
  tb.Arm();
  RunNetworkReceive(tb, Msec(200), 32 * 1024, false);
  const RawTrace raw = tb.StopAndUpload();
  ASSERT_GT(raw.events.size(), 100u);
  ExpectFeedShapesAgree(raw, tb.tags(), "network receive", /*split_seed=*/5);
}

TEST(FeedShape, EmptyFeedIsHarmless) {
  const TagFile& names = MakeNames();
  StreamingDecoder decoder(names, 24, 1'000'000, StreamingOptions{.retain_structure = true});
  decoder.Feed(nullptr, 0);
  decoder.FeedChunk(TraceChunk{});
  const DecodedTrace d = decoder.Finish();
  EXPECT_EQ(d.event_count, 0u);
  EXPECT_TRUE(d.per_function.empty());
}

}  // namespace
}  // namespace hwprof
