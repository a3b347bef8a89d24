// Decoder tests against hand-built raw traces with known ground truth:
// nesting, net/elapsed attribution, timer wrap, context switches,
// truncation, anomalies.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/decoder.h"
#include "src/base/rng.h"
#include "src/instr/tag_file.h"
#include "src/profhw/raw_trace.h"
#include "src/profhw/usec_timer.h"

namespace hwprof {
namespace {

// Builds the names file used by most tests:
//   a/100, b/102, c/104, swtch/200(!), MARK/300(=).
// Kept alive for the binary's lifetime: decoded traces point into it.
const TagFile& MakeNames() {
  static const TagFile* names = [] {
    auto* file = new TagFile();
    HWPROF_CHECK(TagFile::Parse(
        "a/100\n"
        "b/102\n"
        "c/104\n"
        "swtch/200!\n"
        "MARK/300=\n",
        file));
    return file;
  }();
  return *names;
}

RawTrace Trace(std::initializer_list<RawEvent> events) {
  RawTrace raw;
  raw.events = events;
  return raw;
}

TEST(Decoder, SimpleCallPair) {
  const TagFile& names = MakeNames();
  // a runs from t=10us to t=60us.
  DecodedTrace d = Decoder::Decode(Trace({{100, 10}, {101, 60}}), names);
  EXPECT_EQ(d.unknown_tags, 0u);
  EXPECT_EQ(d.orphan_exits, 0u);
  EXPECT_EQ(d.unclosed_entries, 0u);
  const FuncStats* a = d.Stats("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->calls, 1u);
  EXPECT_EQ(ToWholeUsec(a->elapsed), 50u);
  EXPECT_EQ(ToWholeUsec(a->net), 50u);
}

TEST(Decoder, NestedCallsSplitNetAndElapsed) {
  const TagFile& names = MakeNames();
  // a [10..100] contains b [30..70]: a.net=60-20=... a elapsed 90, b 40,
  // a net 50.
  DecodedTrace d = Decoder::Decode(Trace({{100, 10}, {102, 30}, {103, 70}, {101, 100}}),
                                   names);
  const FuncStats* a = d.Stats("a");
  const FuncStats* b = d.Stats("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(ToWholeUsec(a->elapsed), 90u);
  EXPECT_EQ(ToWholeUsec(a->net), 50u);
  EXPECT_EQ(ToWholeUsec(b->elapsed), 40u);
  EXPECT_EQ(ToWholeUsec(b->net), 40u);
}

TEST(Decoder, SiblingCallsAggregate) {
  const TagFile& names = MakeNames();
  // Two calls of b inside a: per-call nets 10 and 30 -> min 10, max 30.
  DecodedTrace d = Decoder::Decode(
      Trace({{100, 0}, {102, 10}, {103, 20}, {102, 40}, {103, 70}, {101, 100}}), names);
  const FuncStats* b = d.Stats("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->calls, 2u);
  EXPECT_EQ(ToWholeUsec(b->net), 40u);
  EXPECT_EQ(ToWholeUsec(b->min_net), 10u);
  EXPECT_EQ(ToWholeUsec(b->max_net), 30u);
  EXPECT_EQ(ToWholeUsec(b->AvgNet()), 20u);
  const FuncStats* a = d.Stats("a");
  EXPECT_EQ(ToWholeUsec(a->net), 60u);
}

TEST(Decoder, InlineMarkersDoNotConsumeTime) {
  const TagFile& names = MakeNames();
  DecodedTrace d =
      Decoder::Decode(Trace({{100, 0}, {300, 40}, {101, 100}}), names);
  const FuncStats* a = d.Stats("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(ToWholeUsec(a->net), 100u);
  // The marker appears in the steps.
  bool saw_mark = false;
  for (const TraceStep& s : d.steps) {
    if (s.fn->name == "MARK") {
      saw_mark = true;
      EXPECT_TRUE(s.inline_marker);
    }
  }
  EXPECT_TRUE(saw_mark);
}

TEST(Decoder, TimerWrapReconstructsIntervals) {
  const TagFile& names = MakeNames();
  // Entry just below the wrap, exit just after: interval = 20us despite
  // the raw timestamps going "backwards".
  const std::uint32_t top = (1u << 24) - 10;
  DecodedTrace d = Decoder::Decode(Trace({{100, top}, {101, 10}}), names);
  const FuncStats* a = d.Stats("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(ToWholeUsec(a->elapsed), 20u);
  EXPECT_EQ(ToWholeUsec(d.ElapsedTotal()), 20u);
}

TEST(Decoder, MultipleWrapsAcrossTheRun) {
  const TagFile& names = MakeNames();
  // Three calls, each 10s apart: total run 40s — far beyond one 16.7s wrap,
  // reconstructed correctly because *consecutive* gaps stay under the wrap.
  RawTrace raw;
  const UsecTimer timer;
  for (int i = 0; i < 4; ++i) {
    const Nanoseconds entry = static_cast<Nanoseconds>(i) * 10 * kSecond;
    raw.events.push_back({100, timer.Sample(entry)});
    raw.events.push_back({101, timer.Sample(entry + Sec(1))});
  }
  DecodedTrace d = Decoder::Decode(raw, names);
  EXPECT_EQ(ToWholeUsec(d.ElapsedTotal()), 31u * 1000 * 1000);
  const FuncStats* a = d.Stats("a");
  EXPECT_EQ(a->calls, 4u);
  EXPECT_EQ(ToWholeUsec(a->net), 4u * 1000 * 1000);
}

TEST(Decoder, UnknownTagsCountedAndSkipped) {
  const TagFile& names = MakeNames();
  DecodedTrace d = Decoder::Decode(Trace({{100, 0}, {999, 10}, {101, 20}}), names);
  EXPECT_EQ(d.unknown_tags, 1u);
  const FuncStats* a = d.Stats("a");
  EXPECT_EQ(a->calls, 1u);
  EXPECT_EQ(ToWholeUsec(a->net), 20u);
}

TEST(Decoder, TruncatedCaptureForceClosesOpenCalls) {
  const TagFile& names = MakeNames();
  RawTrace raw = Trace({{100, 0}, {102, 10}});
  raw.overflowed = true;
  DecodedTrace d = Decoder::Decode(raw, names);
  EXPECT_TRUE(d.truncated);
  EXPECT_EQ(d.unclosed_entries, 2u);
  const FuncStats* a = d.Stats("a");
  const FuncStats* b = d.Stats("b");
  EXPECT_EQ(a->calls, 1u);
  EXPECT_EQ(b->calls, 1u);
  // Closed at the last event: a spans 10us total, b 0.
  EXPECT_EQ(ToWholeUsec(a->elapsed), 10u);
}

TEST(Decoder, OrphanExitCounted) {
  const TagFile& names = MakeNames();
  DecodedTrace d = Decoder::Decode(Trace({{103, 10}}), names);
  EXPECT_EQ(d.orphan_exits, 1u);
}

TEST(Decoder, ContextSwitchIdleAccounting) {
  const TagFile& names = MakeNames();
  // Process 1: a [0..] calls swtch at 20; idle until 100 where the swtch
  // exit resumes... a fresh context runs b [110..150]. Then at 200 a swtch
  // entry/exit pair resumes process 1 (lookahead sees a's exit at 230).
  DecodedTrace d = Decoder::Decode(Trace({
                                       {100, 0},    // a entry (proc 1)
                                       {200, 20},   // swtch entry: suspend
                                       {201, 100},  // swtch exit: resume ->
                                                    //   lookahead = b entry: fresh ctx
                                       {102, 110},  // b entry (proc 2)
                                       {103, 150},  // b exit
                                       {200, 160},  // swtch entry (proc 2 blocks)
                                       {201, 220},  // swtch exit -> lookahead a exit
                                       {101, 230},  // a exit (proc 1 resumed)
                                   }),
                                   names);
  EXPECT_EQ(d.orphan_exits, 0u);
  // Idle = the two swtch windows: [20..100] + [160..220] = 140us.
  EXPECT_EQ(ToWholeUsec(d.idle_time), 140u);
  const FuncStats* a = d.Stats("a");
  ASSERT_NE(a, nullptr);
  // a's on-CPU time: [0..20] while calling swtch... the swtch body counts
  // as a's child; a's net = [0..20] + [220..230] = 30us.
  EXPECT_EQ(ToWholeUsec(a->net), 30u);
  const FuncStats* b = d.Stats("b");
  EXPECT_EQ(ToWholeUsec(b->net), 40u);
  // The run time excludes idle.
  EXPECT_EQ(ToWholeUsec(d.RunTime()), 230u - 140u);
}

TEST(Decoder, InterruptsInsideIdleAreNotIdle) {
  const TagFile& names = MakeNames();
  // swtch window [10..100] contains an interrupt-ish call b [30..60]:
  // idle must be 90 - 30 = 60us.
  DecodedTrace d = Decoder::Decode(Trace({
                                       {100, 0},    // a entry
                                       {200, 10},   // swtch entry
                                       {102, 30},   // b entry (interrupt during idle)
                                       {103, 60},   // b exit
                                       {201, 100},  // swtch exit
                                       {101, 120},  // a exit (same proc resumed)
                                   }),
                                   names);
  EXPECT_EQ(ToWholeUsec(d.idle_time), 60u);
  const FuncStats* b = d.Stats("b");
  EXPECT_EQ(ToWholeUsec(b->net), 30u);
  const FuncStats* swtch = d.Stats("swtch");
  EXPECT_EQ(ToWholeUsec(swtch->elapsed), 90u);  // window inclusive of the interrupt
  EXPECT_EQ(ToWholeUsec(swtch->net), 60u);      // idle excludes it
}

TEST(Decoder, SuspendedFrameAccumulatesNothingOffCpu) {
  const TagFile& names = MakeNames();
  // Proc 1 blocks inside b (nested in a) for a long time while proc 2 (c)
  // runs. b's elapsed must reflect only its on-CPU spans.
  DecodedTrace d = Decoder::Decode(Trace({
                                       {100, 0},     // a entry
                                       {102, 10},    // b entry
                                       {200, 20},    // swtch entry (b blocks)
                                       {201, 30},    // swtch exit -> fresh (c entry next)
                                       {104, 40},    // c entry (proc 2) [long run]
                                       {105, 1030},  // c exit
                                       {200, 1040},  // swtch entry
                                       {201, 1100},  // swtch exit -> lookahead: b exit
                                       {103, 1110},  // b exit (proc 1)
                                       {101, 1120},  // a exit
                                   }),
                                   names);
  const FuncStats* b = d.Stats("b");
  ASSERT_NE(b, nullptr);
  // b on-CPU: [10..20] + (swtch child [20..30] counts in elapsed) +
  // [1100..1110] = 10 + 10 + 10 = 30 elapsed; net = 20.
  EXPECT_EQ(ToWholeUsec(b->elapsed), 30u);
  EXPECT_EQ(ToWholeUsec(b->net), 20u);
  // c's 990us belong to c alone.
  EXPECT_EQ(ToWholeUsec(d.Stats("c")->net), 990u);
}

TEST(Decoder, StepsAreChronological) {
  const TagFile& names = MakeNames();
  Rng rng(5);
  // A random but well-formed single-proc trace.
  RawTrace raw;
  std::uint32_t t = 0;
  for (int i = 0; i < 50; ++i) {
    t += static_cast<std::uint32_t>(1 + rng.NextBelow(100));
    raw.events.push_back({100, t});
    t += static_cast<std::uint32_t>(1 + rng.NextBelow(100));
    raw.events.push_back({101, t});
  }
  DecodedTrace d = Decoder::Decode(raw, names);
  for (std::size_t i = 1; i < d.steps.size(); ++i) {
    EXPECT_GE(d.steps[i].t, d.steps[i - 1].t);
  }
  EXPECT_EQ(d.Stats("a")->calls, 50u);
}

// Property test: random balanced call trees decode to matching stats.
class DecoderPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderPropertyTest, RandomBalancedTreesDecodeExactly) {
  TagFile names;
  const int kFuncs = 8;
  for (int i = 0; i < kFuncs; ++i) {
    ASSERT_TRUE(names.AddFunction("f" + std::to_string(i),
                                  static_cast<std::uint16_t>(100 + 2 * i)));
  }
  Rng rng(GetParam());
  RawTrace raw;
  std::uint32_t now = 0;
  std::vector<int> stack;
  std::uint64_t expected_calls = 0;
  for (int step = 0; step < 400; ++step) {
    now += static_cast<std::uint32_t>(1 + rng.NextBelow(50));
    // Keep at least one call open mid-run so every interval is attributed
    // (the exactness invariant below depends on it).
    const bool open = stack.size() < 6 && (stack.size() <= 1 || rng.NextBool(0.5));
    if (open) {
      const int fn = static_cast<int>(rng.NextBelow(kFuncs));
      stack.push_back(fn);
      raw.events.push_back({static_cast<std::uint16_t>(100 + 2 * fn), now});
      ++expected_calls;
    } else {
      const int fn = stack.back();
      stack.pop_back();
      raw.events.push_back({static_cast<std::uint16_t>(101 + 2 * fn), now});
    }
  }
  while (!stack.empty()) {
    now += 1;
    raw.events.push_back({static_cast<std::uint16_t>(101 + 2 * stack.back()), now});
    stack.pop_back();
  }
  DecodedTrace d = Decoder::Decode(raw, names);
  EXPECT_EQ(d.orphan_exits, 0u);
  EXPECT_EQ(d.unclosed_entries, 0u);
  std::uint64_t total_calls = 0;
  Nanoseconds total_net = 0;
  for (const auto& [name, stats] : d.per_function) {
    total_calls += stats.calls;
    total_net += stats.net;
    EXPECT_LE(stats.min_net, stats.max_net) << name;
    EXPECT_GE(stats.elapsed, stats.net) << name;
  }
  EXPECT_EQ(total_calls, expected_calls);
  // All time is inside some function (the trace starts and ends with
  // top-level entries/exits): sum of nets == elapsed total.
  EXPECT_EQ(total_net, d.ElapsedTotal());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 17u, 42u, 1993u));

TEST(Decoder, EmptyTraceIsHarmless) {
  const TagFile& names = MakeNames();
  DecodedTrace d = Decoder::Decode(RawTrace{}, names);
  EXPECT_EQ(d.event_count, 0u);
  EXPECT_EQ(d.ElapsedTotal(), 0u);
  EXPECT_TRUE(d.per_function.empty());
}

// --- 24-bit wrap regressions across drain (chunk) boundaries ------------------
// The board's timer wraps every 2^24 us (~16.7 s). With the double-buffered
// readout a wrap can land between two drained banks, so the StreamingDecoder's
// carried-over previous-timestamp must reconstruct the same absolute times the
// one-shot decoder would.

constexpr std::uint32_t kWrap = 1u << 24;

TEST(Decoder, TimerWrapAcrossBankBoundary) {
  const TagFile& names = MakeNames();
  RawTrace raw;
  raw.events = {{100, kWrap - 10}, {101, 10}};  // 20 us call spanning the wrap
  const DecodedTrace batch = Decoder::Decode(raw, names);
  ASSERT_NE(batch.Stats("a"), nullptr);
  EXPECT_EQ(ToWholeUsec(batch.Stats("a")->net), 20u);

  // Same trace, drained as two banks with the boundary exactly at the wrap.
  StreamingDecoder dec(names);
  dec.Feed(raw.events.data(), 1);
  dec.Feed(raw.events.data() + 1, 1);
  const DecodedTrace inc = dec.Finish();
  EXPECT_EQ(ToWholeUsec(inc.Stats("a")->net), 20u);
  EXPECT_EQ(inc.end_time - inc.start_time, batch.end_time - batch.start_time);
}

TEST(Decoder, GapJustUnderTheWrapHorizonAcrossChunks) {
  const TagFile& names = MakeNames();
  // Two events 2^24 - 1 ticks apart: the largest forward gap the 24-bit
  // counter can represent. One tick more would alias to a gap of zero.
  RawTrace raw;
  raw.events = {{100, 7}, {101, 6}};  // delta = kWrap - 1
  const DecodedTrace batch = Decoder::Decode(raw, names);
  ASSERT_NE(batch.Stats("a"), nullptr);
  EXPECT_EQ(ToWholeUsec(batch.Stats("a")->net), static_cast<std::uint64_t>(kWrap - 1));

  StreamingDecoder dec(names);
  dec.Feed(raw.events.data(), 1);
  dec.Feed(raw.events.data() + 1, 1);
  const DecodedTrace inc = dec.Finish();
  EXPECT_EQ(ToWholeUsec(inc.Stats("a")->net), static_cast<std::uint64_t>(kWrap - 1));
}

TEST(Decoder, WrapLandingExactlyOnADrainPoint) {
  const TagFile& names = MakeNames();
  // The sealed bank ends on the last tick before the wrap; the next bank's
  // first event carries timestamp 0.
  RawTrace raw;
  raw.events = {{100, kWrap - 3}, {102, kWrap - 1}, {103, 0}, {101, 2}};
  const DecodedTrace batch = Decoder::Decode(raw, names);
  ASSERT_NE(batch.Stats("b"), nullptr);
  EXPECT_EQ(ToWholeUsec(batch.Stats("b")->net), 1u);
  EXPECT_EQ(ToWholeUsec(batch.Stats("a")->net), 4u);

  StreamingDecoder dec(names);
  dec.Feed(raw.events.data(), 2);
  dec.Feed(raw.events.data() + 2, 2);
  const DecodedTrace inc = dec.Finish();
  EXPECT_EQ(ToWholeUsec(inc.Stats("b")->net), 1u);
  EXPECT_EQ(ToWholeUsec(inc.Stats("a")->net), 4u);
  EXPECT_EQ(inc.end_time - inc.start_time, batch.end_time - batch.start_time);
}

TEST(Decoder, MultipleWrapsAcrossManySmallChunks) {
  const TagFile& names = MakeNames();
  RawTrace raw;
  std::uint32_t now = kWrap - 50;
  for (int i = 0; i < 40; ++i) {
    raw.events.push_back({100, now & (kWrap - 1)});
    now += 600 * 1000;  // 0.6 s per call: wraps roughly every 28 events
    raw.events.push_back({101, now & (kWrap - 1)});
    now += 400 * 1000;
  }
  const DecodedTrace batch = Decoder::Decode(raw, names);

  StreamingDecoder dec(names);
  for (std::size_t i = 0; i < raw.events.size(); i += 3) {
    dec.Feed(raw.events.data() + i, std::min<std::size_t>(3, raw.events.size() - i));
  }
  const DecodedTrace inc = dec.Finish();
  EXPECT_EQ(inc.Stats("a")->net, batch.Stats("a")->net);
  EXPECT_EQ(inc.Stats("a")->calls, batch.Stats("a")->calls);
  EXPECT_EQ(inc.end_time - inc.start_time, batch.end_time - batch.start_time);
  EXPECT_EQ(batch.end_time - batch.start_time, Sec(40) - Usec(400 * 1000));
}

}  // namespace
}  // namespace hwprof
