// src/obs telemetry: counter/gauge/histogram semantics, scoped and manual
// spans, updates from several threads, snapshot determinism, the runtime
// kill-switch, and reset. The registry is process-global, so every test
// resets it and uses metric names namespaced by the test.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/obs/telemetry.h"

namespace hwprof::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    ResetTelemetry();
  }
};

TEST_F(ObsTest, CompiledIn) {
  // The tier-1 suite always builds with telemetry on; the compile-out build
  // is exercised by CI and bench_telemetry_overhead.
  EXPECT_TRUE(kTelemetryCompiledIn);
  EXPECT_TRUE(Enabled());
}

TEST_F(ObsTest, CounterAccumulates) {
  OBS_COUNT("test.counter_a", 1);
  OBS_COUNT("test.counter_a", 2);
  for (int i = 0; i < 5; ++i) {
    OBS_COUNT("test.counter_a", 1);
  }
  const Snapshot snap = GlobalSnapshot();
  EXPECT_EQ(snap.CounterValue("test.counter_a"), 8u);
  const MetricValue* m = snap.Find("test.counter_a");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kCounter);
  EXPECT_EQ(std::string(MetricKindName(m->kind)), "counter");
}

TEST_F(ObsTest, GaugeTracksLevelAndPeak) {
  OBS_GAUGE_ADD("test.gauge", 3);
  OBS_GAUGE_ADD("test.gauge", 4);   // level 7, peak 7
  OBS_GAUGE_ADD("test.gauge", -5);  // level 2
  OBS_GAUGE_ADD("test.gauge", 1);   // level 3, peak stays 7
  const Snapshot snap = GlobalSnapshot();
  const MetricValue* m = snap.Find("test.gauge");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kGauge);
  EXPECT_EQ(m->value, 3);
  EXPECT_EQ(m->peak, 7);
}

TEST_F(ObsTest, HistogramStatsAndBuckets) {
  OBS_HIST_NS("test.hist", 500);        // below the 1us first bound
  OBS_HIST_NS("test.hist", 1'500);      // 1.5us
  OBS_HIST_NS("test.hist", 2'000'000);  // 2ms
  const Snapshot snap = GlobalSnapshot();
  const MetricValue* m = snap.Find("test.hist");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kHistogram);
  EXPECT_EQ(m->count, 3u);
  EXPECT_EQ(m->sum_ns, 2'001'500u + 500u);
  EXPECT_EQ(m->min_ns, 500u);
  EXPECT_EQ(m->max_ns, 2'000'000u);
  std::uint64_t bucketed = 0;
  for (std::uint64_t b : m->buckets) {
    bucketed += b;
  }
  EXPECT_EQ(bucketed, 3u);
  // The ladder is strictly increasing, so bucketing is unambiguous.
  const auto& bounds = HistogramBoundsNs();
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_EQ(bounds.front(), 1'000u);          // 1us
  EXPECT_EQ(bounds.back(), 1'000'000'000u);   // 1s
}

TEST_F(ObsTest, ScopedSpanRecordsOnExit) {
  {
    OBS_SCOPED_SPAN("test.span_scoped");
  }
  {
    OBS_SCOPED_SPAN("test.span_scoped");
  }
  const Snapshot snap = GlobalSnapshot();
  const MetricValue* m = snap.Find("test.span_scoped");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 2u);
}

TEST_F(ObsTest, ManualSpanRecordsWhenEnded) {
  OBS_SPAN_BEGIN(t);
  OBS_SPAN_END(t, "test.span_manual");
  const Snapshot snap = GlobalSnapshot();
  const MetricValue* m = snap.Find("test.span_manual");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 1u);
}

TEST_F(ObsTest, ThreadsSumIntoOneSnapshot) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        OBS_COUNT("test.mt_counter", 1);
        OBS_HIST_NS("test.mt_hist", 1'000);
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  const Snapshot snap = GlobalSnapshot();
  EXPECT_EQ(snap.CounterValue("test.mt_counter"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const MetricValue* h = snap.Find("test.mt_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->min_ns, 1'000u);
  EXPECT_EQ(h->max_ns, 1'000u);
}

TEST_F(ObsTest, SnapshotIsSortedAndFormatIsDeterministic) {
  OBS_COUNT("test.z_last", 1);
  OBS_COUNT("test.a_first", 1);
  OBS_GAUGE_ADD("test.m_mid", 2);
  const Snapshot snap = GlobalSnapshot();
  for (std::size_t i = 1; i < snap.metrics.size(); ++i) {
    EXPECT_LT(snap.metrics[i - 1].name, snap.metrics[i].name);
  }
  EXPECT_EQ(snap.FormatText(2), GlobalSnapshot().FormatText(2));
  EXPECT_EQ(snap.FormatJson(), GlobalSnapshot().FormatJson());
  EXPECT_NE(snap.FormatText(0).find("test.a_first"), std::string::npos);
  EXPECT_NE(snap.FormatJson().find("\"test.m_mid\""), std::string::npos);
}

TEST_F(ObsTest, KillSwitchSuppressesUpdates) {
  OBS_COUNT("test.kill", 1);
  SetEnabled(false);
  OBS_COUNT("test.kill", 100);
  OBS_HIST_NS("test.kill_h", 1'000);
  EXPECT_EQ(SpanClock(), 0u);  // disabled spans skip the clock read
  {
    OBS_SCOPED_SPAN("test.kill_span");
  }
  SetEnabled(true);
  const Snapshot snap = GlobalSnapshot();
  EXPECT_EQ(snap.CounterValue("test.kill"), 1u);
  const MetricValue* h = snap.Find("test.kill_h");
  if (h != nullptr) {
    EXPECT_EQ(h->count, 0u);
  }
  const MetricValue* s = snap.Find("test.kill_span");
  if (s != nullptr) {
    EXPECT_EQ(s->count, 0u);
  }
  EXPECT_NE(SpanClock(), 0u);
}

TEST_F(ObsTest, ResetZeroesButKeepsRegistrations) {
  OBS_COUNT("test.reset", 9);
  ResetTelemetry();
  const Snapshot snap = GlobalSnapshot();
  const MetricValue* m = snap.Find("test.reset");
  ASSERT_NE(m, nullptr) << "registration must survive a reset";
  EXPECT_EQ(m->count, 0u);
}

TEST_F(ObsTest, MonotonicClockAdvances) {
  const std::uint64_t a = MonotonicNowNs();
  const std::uint64_t b = MonotonicNowNs();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace hwprof::obs
