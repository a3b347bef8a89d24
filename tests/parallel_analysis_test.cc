// Differential-equivalence harness for the parallel sharded analysis
// engine: for ANY capture — hand-built context-switch traces, fuzzed
// adversarial traces with anomaly injection, chunked streaming feeds with
// capture gaps, and a real workload capture — DecodeParallel must be
// byte-identical to the serial Decoder across every worker count and shard
// size. "Byte-identical" means every rendered report (summary, callgraph,
// process report, code-path trace) and every anomaly/truncation counter,
// not just the headline numbers.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/analysis/parallel.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/instr/tag_file.h"
#include "src/profhw/raw_trace.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"
#include "tests/trace_testutil.h"

namespace hwprof {
namespace {

// Context-switch-heavy reference traces: suspended stacks, lookahead
// resolution, orphans, unknown tags, truncation — the cases where shard
// stitching has to reproduce cross-cut state exactly.
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

TEST(ParallelAnalysis, ReferenceTracesMatchSerialExactly) {
  const TagFile& names = MakeNames();
  int i = 0;
  for (const RawTrace& raw : ReferenceTraces()) {
    ExpectParallelMatchesSerial(raw, names, "reference trace " + std::to_string(i++));
  }
}

class ParallelFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelFuzzTest, FuzzedTraceMatchesSerialAcrossJobsAndShardSizes) {
  const TagFile& names = MakeNames();
  const RawTrace raw = FuzzTrace(GetParam(), 800);
  ExpectParallelMatchesSerial(raw, names, "seed " + std::to_string(GetParam()),
                              GetParam());
}

TEST_P(ParallelFuzzTest, ChunkedFeedWithDropsMatchesStreamingDecoder) {
  const TagFile& names = MakeNames();
  Rng rng(GetParam() * 6151 + 3);
  const RawTrace raw = FuzzTrace(GetParam() + 500, 500);

  // Random chunking with occasional capture gaps, fed identically to the
  // serial streaming decoder (retaining structure) and the parallel
  // analyzer.
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

  StreamingOptions sopts;
  sopts.retain_structure = true;
  StreamingDecoder serial(names, raw.timer_bits, raw.timer_clock_hz, sopts);
  ParallelOptions popts;
  popts.jobs = 3;
  popts.shard_target_ops = 32;
  ParallelAnalyzer par(names, raw.timer_bits, raw.timer_clock_hz, popts);
  for (const TraceChunk& chunk : chunks) {
    serial.FeedChunk(chunk);
    par.FeedChunk(chunk);
  }
  EXPECT_EQ(par.events_seen(), serial.events_seen());
  EXPECT_EQ(par.dropped_events(), serial.dropped_events());
  EXPECT_EQ(Fingerprint(par.Finish(raw.overflowed)),
            Fingerprint(serial.Finish(raw.overflowed)))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u,
                                           11u, 12u, 13u, 21u, 34u, 42u, 55u, 89u,
                                           144u, 233u, 1993u, 4096u));

TEST(ParallelAnalysis, WorkloadCaptureMatchesSerial) {
  Testbed tb;
  tb.Arm();
  RunNetworkReceive(tb, Msec(200), 32 * 1024, false);
  const RawTrace raw = tb.StopAndUpload();
  ASSERT_GT(raw.events.size(), 100u);
  const std::string serial = Fingerprint(Decoder::Decode(raw, tb.tags()));
  for (unsigned jobs : {1u, 8u}) {
    ParallelOptions opts;
    opts.jobs = jobs;
    opts.shard_target_ops = 256;
    EXPECT_EQ(Fingerprint(DecodeParallel(raw, tb.tags(), opts)), serial)
        << "jobs=" << jobs;
  }
}

TEST(ParallelAnalysis, ManyShardsAreActuallyPlanned) {
  // Sanity that the equivalence above is not vacuous: small shard targets on
  // a switch-heavy trace must produce several shards.
  const TagFile& names = MakeNames();
  const RawTrace raw = FuzzTrace(7, 800);
  ParallelOptions opts;
  opts.jobs = 2;
  opts.shard_target_ops = 16;
  ParallelAnalyzer par(names, raw.timer_bits, raw.timer_clock_hz, opts);
  par.Feed(raw.events);
  const std::size_t planned = par.shards_planned();
  EXPECT_GE(planned, 4u);
  (void)par.Finish(raw.overflowed);
}

TEST(ParallelAnalysis, EmptyFeedIsHarmless) {
  const TagFile& names = MakeNames();
  ParallelAnalyzer par(names);
  par.Feed(nullptr, 0);
  par.FeedChunk(TraceChunk{});
  const DecodedTrace d = par.Finish();
  EXPECT_EQ(d.event_count, 0u);
  EXPECT_TRUE(d.per_function.empty());
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  EXPECT_GE(ThreadPool::DefaultJobs(), 1u);
  for (unsigned workers : {1u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i) {
      pool.Submit([&sum, i] { sum.fetch_add(i); });
    }
    pool.WaitIdle();
    EXPECT_EQ(sum.load(), 5050) << "workers=" << workers;
  }
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.WaitIdle();  // idle pool: returns immediately
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.WaitIdle();
    EXPECT_EQ(count.load(), 20 * (round + 1));
  }
}

}  // namespace
}  // namespace hwprof
