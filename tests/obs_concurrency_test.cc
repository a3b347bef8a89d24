// Telemetry under real concurrency, built to run under TSan (CI's
// tests-tsan job includes this binary): the SetEnabled kill-switch flipped
// while worker threads are mid-span, shared cells that must be exact
// regardless of scheduling, threads that exit while the registry is read,
// gauge peak tracking under contention, and the TimeSeriesStore ring
// mutated and windowed from different threads. The registry is
// process-global, so every test resets it and namespaces its metric names.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/telemetry.h"
#include "src/obs/timeseries.h"

namespace hwprof::obs {
namespace {

class ObsConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    ResetTelemetry();
  }
  void TearDown() override { SetEnabled(true); }
};

TEST_F(ObsConcurrencyTest, KillSwitchFlippedMidSpanIsSafe) {
  // Workers hammer every metric kind while the main thread toggles the
  // kill-switch. The contract under race is "no tearing, no crash, updates
  // while disabled are lost" — so the only value assertion is an upper
  // bound; TSan asserts the rest.
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        OBS_COUNT("conc.kill.counter", 1);
        OBS_GAUGE_ADD("conc.kill.gauge", 1);
        {
          OBS_SCOPED_SPAN("conc.kill.span");
          OBS_HIST_NS("conc.kill.hist", 123);
        }
        OBS_GAUGE_ADD("conc.kill.gauge", -1);
      }
    });
  }
  std::thread toggler([&stop] {
    bool on = false;
    while (!stop.load(std::memory_order_relaxed)) {
      SetEnabled(on);
      on = !on;
      std::this_thread::yield();
    }
    SetEnabled(true);
  });
  for (std::thread& w : workers) {
    w.join();
  }
  stop.store(true, std::memory_order_relaxed);
  toggler.join();

  const Snapshot snap = GlobalSnapshot();
  EXPECT_LE(snap.CounterValue("conc.kill.counter"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  const MetricValue* hist = snap.Find("conc.kill.hist");
  if (hist != nullptr) {
    EXPECT_LE(hist->count, static_cast<std::uint64_t>(kThreads) * kIters);
  }
}

TEST_F(ObsConcurrencyTest, SharedCellsAreExactAcrossSchedules) {
  // Each thread contributes a known amount; whatever the interleaving, the
  // snapshot is exact and two snapshots of the same quiescent state
  // render byte-identically.
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        OBS_COUNT("conc.merge.counter", static_cast<std::uint64_t>(t + 1));
        OBS_HIST_NS("conc.merge.hist",
                    static_cast<std::uint64_t>(500 + 1000 * t));
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  // Sum over threads of (t+1) * kIters = kIters * kThreads(kThreads+1)/2.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kIters) * kThreads * (kThreads + 1) / 2;
  const Snapshot snap = GlobalSnapshot();
  EXPECT_EQ(snap.CounterValue("conc.merge.counter"), expected);
  const MetricValue* hist = snap.Find("conc.merge.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(hist->min_ns, 500u);
  EXPECT_EQ(hist->max_ns, 500u + 1000u * (kThreads - 1));
  EXPECT_EQ(snap.FormatJson(), GlobalSnapshot().FormatJson());
  EXPECT_EQ(snap.FormatText(2), GlobalSnapshot().FormatText(2));
}

TEST_F(ObsConcurrencyTest, ShortLivedThreadsLeaveExactTotals) {
  // Batches of threads update every metric kind and exit while the main
  // thread snapshots. What an exited thread added stays in the metric's
  // shared cell, so the totals after the last join are exact.
  constexpr int kThreads = 8;
  constexpr int kRounds = 16;
  constexpr int kIters = 50;
  constexpr std::uint64_t kSampleNs = 2'000;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([] {
        for (int i = 0; i < kIters; ++i) {
          OBS_COUNT("conc.short.counter", 1);
          OBS_GAUGE_ADD("conc.short.gauge", 1);
          OBS_HIST_NS("conc.short.hist", kSampleNs);
        }
      });
    }
    const Snapshot during = GlobalSnapshot();
    EXPECT_LE(during.CounterValue("conc.short.counter"),
              static_cast<std::uint64_t>(round + 1) * kThreads * kIters);
    for (std::thread& w : workers) {
      w.join();
    }
  }
  const std::uint64_t total = static_cast<std::uint64_t>(kRounds) * kThreads * kIters;
  const Snapshot snap = GlobalSnapshot();
  EXPECT_EQ(snap.CounterValue("conc.short.counter"), total);
  const MetricValue* gauge = snap.Find("conc.short.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, static_cast<std::int64_t>(total));
  EXPECT_EQ(gauge->peak, static_cast<std::int64_t>(total));
  const MetricValue* hist = snap.Find("conc.short.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, total);
  EXPECT_EQ(hist->sum_ns, total * kSampleNs);
  EXPECT_EQ(hist->min_ns, kSampleNs);
  EXPECT_EQ(hist->max_ns, kSampleNs);
  EXPECT_EQ(hist->buckets[HistogramBucket(kSampleNs)], total);
}

TEST_F(ObsConcurrencyTest, GaugePeakUnderContentionIsBounded) {
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        OBS_GAUGE_ADD("conc.gauge.level", 1);
        OBS_GAUGE_ADD("conc.gauge.level", -1);
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  const Snapshot snap = GlobalSnapshot();  // outlives `g`
  const MetricValue* g = snap.Find("conc.gauge.level");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, 0);  // every +1 was matched by a -1
  EXPECT_GE(g->peak, 1);
  EXPECT_LE(g->peak, kThreads);  // never more than one outstanding per thread
}

TEST_F(ObsConcurrencyTest, TimeSeriesRingEvictsOldestAtCapacity) {
  TimeSeriesStore store(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Snapshot snap;
    MetricValue m;
    m.name = "ring.counter";
    m.kind = MetricKind::kCounter;
    m.count = i * 100;
    snap.metrics.push_back(m);
    store.Record(i * 1000, std::move(snap));
  }
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.capacity(), 4u);
  EXPECT_EQ(store.oldest_t_ns(), 7000u);  // samples 7..10 survive
  EXPECT_EQ(store.newest_t_ns(), 10000u);
  const WindowStats w = store.Window(0);
  EXPECT_EQ(w.samples, 4u);
  ASSERT_EQ(w.metrics.size(), 1u);
  EXPECT_EQ(w.metrics[0].first, 700u);
  EXPECT_EQ(w.metrics[0].last, 1000u);

  // A regressing clock is clamped, never reordering the ring.
  Snapshot snap;
  store.Record(5, std::move(snap));
  EXPECT_EQ(store.newest_t_ns(), 10000u);
}

TEST_F(ObsConcurrencyTest, TimeSeriesRecordAndWindowRaceSafely) {
  TimeSeriesStore store(16);
  std::atomic<bool> stop{false};
  std::thread writer([&store, &stop] {
    std::uint64_t t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Snapshot snap;
      MetricValue m;
      m.name = "race.counter";
      m.kind = MetricKind::kCounter;
      m.count = ++t;
      snap.metrics.push_back(m);
      store.Record(t * 100, std::move(snap));
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const WindowStats w = store.Window(0);
    EXPECT_LE(w.samples, 16u);
    for (const WindowMetric& m : w.metrics) {
      EXPECT_LE(m.first, m.last);  // counters in one ring are monotone
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_LE(store.size(), 16u);
}

}  // namespace
}  // namespace hwprof::obs
