// Observability-layer unit coverage: multithreaded exactness of the sharded
// Counter / LatencyHistogram instruments, bucket-percentile math, snapshot
// merge algebra (associative, order-independent), registry retention on
// deregistration, the trace span JSONL emission, and the snapshot round-trip
// through a cumulative timeseries frame (the kGetStats wire payload).
#include "obs/metrics.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "obs/clock.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace vfl::obs {
namespace {

TEST(CounterTest, MultithreadedAddsAreExact) {
  Counter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
}

TEST(GaugeTest, AddAndSetAreVisible) {
  Gauge gauge;
  gauge.Add(5);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 3);
  gauge.Set(42);
  EXPECT_EQ(gauge.Value(), 42);
}

TEST(HistogramBucketTest, SmallValuesAreExactAndBoundsAreTight) {
  // 0..7 land in their own bucket with an exact upper bound.
  for (std::uint64_t v = 0; v < kHistogramSubBuckets; ++v) {
    EXPECT_EQ(HistogramBucketUpperBound(HistogramBucketIndex(v)), v);
  }
  // Every value is <= its bucket's upper bound and the bound is within
  // 12.5% (one sub-bucket width) of the value.
  core::Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v =
        1 + rng.UniformInt(1u << 30) *
                (1 + rng.UniformInt(1u << 16));
    const std::size_t idx = HistogramBucketIndex(v);
    const std::uint64_t upper = HistogramBucketUpperBound(idx);
    ASSERT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - v),
              static_cast<double>(v) * 0.125 + 1.0)
        << "v=" << v;
    // Monotone: the previous bucket's bound is below v.
    if (idx > 0) {
      EXPECT_LT(HistogramBucketUpperBound(idx - 1), v);
    }
  }
}

TEST(HistogramTest, MultithreadedRecordsAreExact) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with VFLFIA_METRICS=OFF";
  LatencyHistogram hist;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist.Record(t * 1000 + i % 997);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(HistogramTest, PercentilesAreBucketUpperBounds) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with VFLFIA_METRICS=OFF";
  LatencyHistogram hist;
  // 100 values 1..100: p50 covers value 50, p99 covers 99 — each within one
  // bucket width (12.5%) of the true rank value.
  for (std::uint64_t v = 1; v <= 100; ++v) hist.Record(v);
  const HistogramSnapshot snap = hist.Snapshot();
  const std::uint64_t p50 = snap.Percentile(0.50);
  const std::uint64_t p99 = snap.Percentile(0.99);
  EXPECT_GE(p50, 50u);
  EXPECT_LE(p50, 56u);  // 50 * 1.125
  EXPECT_GE(p99, 99u);
  EXPECT_LE(p99, 112u);
  EXPECT_EQ(snap.Percentile(0.0), snap.Percentile(0.001));
  EXPECT_DOUBLE_EQ(snap.Mean(), 50.5);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  HistogramSnapshot snap;
  EXPECT_EQ(snap.Percentile(0.99), 0u);
  EXPECT_EQ(snap.Mean(), 0.0);
}

TEST(SnapshotMergeTest, MergeIsAssociativeAndOrderIndependent) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with VFLFIA_METRICS=OFF";
  // Three registries with overlapping metric names and disjoint extras.
  MetricsRegistry a, b, c;
  a.GetCounter("shared.count", "q")->Add(3);
  b.GetCounter("shared.count", "q")->Add(4);
  c.GetCounter("shared.count", "q")->Add(5);
  a.GetCounter("only.a", "q")->Add(1);
  c.GetCounter("only.c", "q")->Add(9);
  for (std::uint64_t v = 1; v <= 10; ++v) {
    a.GetHistogram("shared.lat", "ns")->Record(v * 10);
    b.GetHistogram("shared.lat", "ns")->Record(v * 100);
  }

  const MetricsSnapshot sa = a.Snapshot(), sb = b.Snapshot(),
                        sc = c.Snapshot();
  // (a + b) + c
  MetricsSnapshot left = sa;
  left.Merge(sb);
  left.Merge(sc);
  // a + (b + c)
  MetricsSnapshot bc = sb;
  bc.Merge(sc);
  MetricsSnapshot right = sa;
  right.Merge(bc);
  // c + b + a (reversed)
  MetricsSnapshot rev = sc;
  rev.Merge(sb);
  rev.Merge(sa);

  for (const MetricsSnapshot* merged : {&left, &right, &rev}) {
    EXPECT_EQ(merged->ValueOf("shared.count"), 12);
    EXPECT_EQ(merged->ValueOf("only.a"), 1);
    EXPECT_EQ(merged->ValueOf("only.c"), 9);
    const HistogramSnapshot lat = merged->HistogramOf("shared.lat");
    EXPECT_EQ(lat.count, 20u);
    EXPECT_EQ(lat.sum, 550u + 5500u);
  }
  // Same points in the same (name-sorted) order: encodings agree.
  const std::string encoded = EncodeTimeseriesFrame(DiffSnapshots({}, left));
  EXPECT_EQ(EncodeTimeseriesFrame(DiffSnapshots({}, right)), encoded);
  EXPECT_EQ(EncodeTimeseriesFrame(DiffSnapshots({}, rev)), encoded);
}

TEST(RegistryTest, DeregistrationRetainsCounterAndHistogramTotals) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with VFLFIA_METRICS=OFF";
  MetricsRegistry registry;
  {
    Counter served;
    LatencyHistogram lat;
    Gauge depth;
    auto r1 = registry.RegisterCounter("x.served", "q", &served);
    auto r2 = registry.RegisterHistogram("x.lat", "ns", &lat);
    auto r3 = registry.RegisterGauge("x.depth", "q", &depth);
    served.Add(7);
    lat.Record(100);
    lat.Record(200);
    depth.Set(5);
    const MetricsSnapshot live = registry.Snapshot();
    EXPECT_EQ(live.ValueOf("x.served"), 7);
    EXPECT_EQ(live.ValueOf("x.depth"), 5);
    EXPECT_EQ(live.HistogramOf("x.lat").count, 2u);
  }  // instruments die; registrations fold finals into the retained base
  const MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.ValueOf("x.served"), 7);
  EXPECT_EQ(after.HistogramOf("x.lat").count, 2u);
  // A dead gauge contributes nothing (it measures a level, not a total).
  EXPECT_EQ(after.ValueOf("x.depth"), 0);

  // A second instrument under the same name sums with the retained base —
  // the per-trial-server lifecycle.
  Counter served2;
  auto r4 = registry.RegisterCounter("x.served", "q", &served2);
  served2.Add(3);
  EXPECT_EQ(registry.Snapshot().ValueOf("x.served"), 10);
}

TEST(RegistryTest, GetInstrumentsAreSharedByName) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("g.count", "q");
  Counter* again = registry.GetCounter("g.count", "q");
  EXPECT_EQ(first, again);
  first->Add(2);
  EXPECT_EQ(registry.Snapshot().ValueOf("g.count"), 2);
}

TEST(SnapshotFrameTest, CumulativeFrameRoundTripRebuildsEveryPoint) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with VFLFIA_METRICS=OFF";
  MetricsRegistry registry;
  registry.GetCounter("net.frames_in", "frames")->Add(123);
  registry.GetGauge("serve.queue_depth", "requests")->Set(-4);
  LatencyHistogram* lat = registry.GetHistogram("net.predict_ns", "ns");
  core::Rng rng(5);
  for (int i = 0; i < 1000; ++i) lat->Record(rng.UniformInt(1u << 20));

  const MetricsSnapshot snapshot = registry.Snapshot();
  const auto decoded =
      DecodeTimeseriesFrame(EncodeTimeseriesFrame(DiffSnapshots({}, snapshot)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const MetricsSnapshot rebuilt = SnapshotFromFrame(*decoded);
  ASSERT_EQ(rebuilt.points.size(), snapshot.points.size());
  for (std::size_t i = 0; i < snapshot.points.size(); ++i) {
    const MetricPoint& want = snapshot.points[i];
    const MetricPoint& got = rebuilt.points[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.type, want.type) << want.name;
    EXPECT_EQ(got.value, want.value) << want.name;
    EXPECT_EQ(got.hist.count, want.hist.count) << want.name;
    EXPECT_EQ(got.hist.sum, want.hist.sum) << want.name;
    EXPECT_EQ(got.hist.buckets, want.hist.buckets) << want.name;
  }
  EXPECT_EQ(rebuilt.ValueOf("serve.queue_depth"), -4);
  EXPECT_EQ(rebuilt.HistogramOf("net.predict_ns").count, 1000u);
}

TEST(TraceTest, SpanEmitsOneLineWithStagesAndAttrs) {
  CapturingTraceSink sink;
  {
    TraceSpan span(&sink, "predict", /*request_id=*/42, /*client_id=*/7);
    ASSERT_TRUE(span.active());
    span.AddStageNs("queue_wait", 1000);
    span.AddStageNs("model_forward", 2000);
    span.AddStageNs("queue_wait", 500);  // accumulates
    span.SetAttr("rows", 16);
  }  // destructor finishes
  const std::vector<std::string> lines = sink.lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_NE(line.find("\"kind\":\"predict\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"request_id\":42"), std::string::npos) << line;
  EXPECT_NE(line.find("\"client_id\":7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"queue_wait\":1500"), std::string::npos) << line;
  EXPECT_NE(line.find("\"model_forward\":2000"), std::string::npos) << line;
  EXPECT_NE(line.find("\"rows\":16"), std::string::npos) << line;
}

TEST(TraceTest, NullSinkSpanIsInertAndFinishEmitsOnce) {
  TraceSpan inert(nullptr, "hello", 1, 2);
  EXPECT_FALSE(inert.active());
  inert.AddStageNs("read", 10);  // no-op, no crash
  inert.Finish();

  CapturingTraceSink sink;
  TraceSpan span(&sink, "hello", 1, 2);
  span.Finish();
  span.Finish();  // second call is a no-op
  EXPECT_EQ(sink.lines().size(), 1u);
}

TEST(ClockTest, NowNanosIsMonotonic) {
  const std::uint64_t a = NowNanos();
  const std::uint64_t b = NowNanos();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace vfl::obs
