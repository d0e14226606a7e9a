#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/registry.h"

namespace mcirbm::obs {
namespace {

// One bucket spans a factor of 2^(1/4), so a quantile estimated by linear
// interpolation inside a bucket is at most one bucket ratio away from the
// exact order statistic.
constexpr double kBucketRatio = 1.18920711500272106;  // 2^(1/4)

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  // Nearest-rank, matching Histogram::Snapshot::Quantile's target rank.
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(values.size()))));
  return values[rank - 1];
}

TEST(HistogramTest, BucketLayout) {
  // Bucket 0 catches [0, 1) plus anything non-positive.
  EXPECT_EQ(Histogram::BucketFor(0.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(-5.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(0.999), 0u);
  // Bucket 1 starts at exactly 1.
  EXPECT_EQ(Histogram::BucketFor(1.0), 1u);
  // Values far beyond the covered range clamp to the last bucket.
  EXPECT_EQ(Histogram::BucketFor(1e30), Histogram::kBuckets - 1);
  // Bucket edges are monotone.
  for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    EXPECT_LT(Histogram::BucketUpper(i), Histogram::BucketUpper(i + 1));
  }
}

TEST(HistogramTest, EmptySnapshot) {
  Histogram h;
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
  EXPECT_EQ(snap.Quantile(0.0), 0.0);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.Quantile(1.0), 0.0);
}

TEST(HistogramTest, SingleSample) {
  Histogram h;
  h.Record(100.0);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 100.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 100.0);
  // Every quantile of a single sample lands in that sample's bucket, so
  // the estimate is within one bucket ratio of the sample itself.
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double est = snap.Quantile(q);
    EXPECT_GE(est, 100.0 / kBucketRatio) << "q=" << q;
    EXPECT_LE(est, 100.0 * kBucketRatio) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileAccuracyVsExactSort) {
  // Log-uniform samples over [1us, ~100ms] — the latency range the serve
  // layer actually sees — exercising many buckets at once.
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> log_value(0.0, std::log(1e5));
  std::vector<double> values;
  values.reserve(20000);
  Histogram h;
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp(log_value(rng));
    values.push_back(v);
    h.Record(v);
  }
  const Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = ExactQuantile(values, q);
    const double est = snap.Quantile(q);
    // One bucket of slack on either side: the estimate interpolates
    // inside the bucket holding the exact order statistic.
    EXPECT_GE(est, exact / kBucketRatio) << "q=" << q;
    EXPECT_LE(est, exact * kBucketRatio) << "q=" << q;
  }
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  Histogram a;
  Histogram b;
  Histogram c;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> value(0.5, 5000.0);
  for (int i = 0; i < 300; ++i) a.Record(value(rng));
  for (int i = 0; i < 200; ++i) b.Record(value(rng));
  for (int i = 0; i < 100; ++i) c.Record(value(rng));
  const Histogram::Snapshot sa = a.snapshot();
  const Histogram::Snapshot sb = b.snapshot();
  const Histogram::Snapshot sc = c.snapshot();

  // (a + b) + c
  Histogram::Snapshot left = sa;
  left.Merge(sb);
  left.Merge(sc);
  // a + (b + c), folded in a different order
  Histogram::Snapshot right = sc;
  right.Merge(sb);
  right.Merge(sa);

  EXPECT_EQ(left.count, 600u);
  EXPECT_EQ(left.count, right.count);
  EXPECT_DOUBLE_EQ(left.sum, right.sum);
  EXPECT_EQ(left.counts, right.counts);
  EXPECT_DOUBLE_EQ(left.Quantile(0.95), right.Quantile(0.95));
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram h;
  for (int i = 1; i <= 50; ++i) h.Record(static_cast<double>(i));
  const Histogram::Snapshot base = h.snapshot();
  Histogram::Snapshot merged = base;
  merged.Merge(Histogram::Snapshot{});
  EXPECT_EQ(merged.count, base.count);
  EXPECT_DOUBLE_EQ(merged.sum, base.sum);
  EXPECT_EQ(merged.counts, base.counts);
  EXPECT_DOUBLE_EQ(merged.min, base.min);
  EXPECT_DOUBLE_EQ(merged.max, base.max);
}

TEST(HistogramTest, MinMaxTrackExactExtremes) {
  Histogram h;
  // Empty histogram: extremes read as 0 (matching count/sum).
  EXPECT_DOUBLE_EQ(h.snapshot().min, 0.0);
  EXPECT_DOUBLE_EQ(h.snapshot().max, 0.0);
  h.Record(250.0);
  EXPECT_DOUBLE_EQ(h.snapshot().min, 250.0);
  EXPECT_DOUBLE_EQ(h.snapshot().max, 250.0);
  h.Record(12.5);
  h.Record(9000.0);
  h.Record(100.0);
  const Histogram::Snapshot snap = h.snapshot();
  // Exact, not bucketed: the extremes are the recorded values themselves.
  EXPECT_DOUBLE_EQ(snap.min, 12.5);
  EXPECT_DOUBLE_EQ(snap.max, 9000.0);
}

TEST(HistogramTest, MergeTakesExtremesAcrossReplicas) {
  Histogram a;
  Histogram b;
  a.Record(5.0);
  a.Record(300.0);
  b.Record(1.0);
  b.Record(40.0);
  Histogram::Snapshot merged = a.snapshot();
  merged.Merge(b.snapshot());
  EXPECT_DOUBLE_EQ(merged.min, 1.0);
  EXPECT_DOUBLE_EQ(merged.max, 300.0);
  // An empty left side adopts the right side's extremes instead of
  // folding its 0 sentinel into the min.
  Histogram::Snapshot from_empty;
  from_empty.Merge(a.snapshot());
  EXPECT_DOUBLE_EQ(from_empty.min, 5.0);
  EXPECT_DOUBLE_EQ(from_empty.max, 300.0);
}

// Run under TSan in CI (serve-tsan job): concurrent Record must be free
// of data races, and no observation may be lost.
TEST(HistogramTest, ConcurrentRecord) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>((t * kPerThread + i) % 997) + 1.0);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t n : snap.counts) bucket_total += n;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_GT(snap.sum, 0.0);
}

TEST(RegistryTest, GetOrCreateReturnsStableHandles) {
  Registry registry;
  Counter& c1 = registry.counter("requests_total", "m");
  Counter& c2 = registry.counter("requests_total", "m");
  EXPECT_EQ(&c1, &c2);
  c1.Increment(3);
  EXPECT_EQ(c2.Value(), 3u);
  // A different label is a different metric.
  Counter& other = registry.counter("requests_total", "n");
  EXPECT_NE(&c1, &other);
  EXPECT_EQ(other.Value(), 0u);
}

TEST(RegistryTest, SnapshotMergeSumsCountersAndGauges) {
  Registry a;
  Registry b;
  a.counter("reqs", "m").Increment(5);
  b.counter("reqs", "m").Increment(7);
  b.counter("reqs", "n").Increment(1);
  a.gauge("depth", "m").Set(2.0);
  b.gauge("depth", "m").Set(3.0);
  a.histogram("lat", "m").Record(10.0);
  b.histogram("lat", "m").Record(20.0);

  MetricsSnapshot merged = a.snapshot();
  merged.Merge(b.snapshot());
  EXPECT_EQ((merged.counters[{"reqs", "m"}]), 12u);
  EXPECT_EQ((merged.counters[{"reqs", "n"}]), 1u);
  EXPECT_DOUBLE_EQ((merged.gauges[{"depth", "m"}]), 5.0);
  EXPECT_EQ((merged.histograms[{"lat", "m"}].count), 2u);
  EXPECT_DOUBLE_EQ((merged.histograms[{"lat", "m"}].sum), 30.0);

  // Totals over every label: the sum of all "reqs" series, 0 for a name
  // never recorded, and one merged "lat" histogram.
  EXPECT_EQ(merged.CounterTotal("reqs"), 13u);
  EXPECT_EQ(merged.CounterTotal("absent"), 0u);
  const Histogram::Snapshot lat = merged.HistogramTotal("lat");
  EXPECT_EQ(lat.count, 2u);
  EXPECT_DOUBLE_EQ(lat.sum, 30.0);
}

TEST(RegistryTest, RenderTextFormat) {
  Registry registry;
  registry.counter("reqs_total", "enc.mcirbm").Increment(128);
  registry.gauge("replicas").Set(2.0);
  registry.histogram("wait_micros", "enc.mcirbm").Record(412.7);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("reqs_total{model=\"enc.mcirbm\"} 128"),
            std::string::npos)
      << text;
  // No braces when the label is empty.
  EXPECT_NE(text.find("replicas 2"), std::string::npos) << text;
  EXPECT_NE(text.find(
                "wait_micros{model=\"enc.mcirbm\",quantile=\"0.95\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wait_micros_count{model=\"enc.mcirbm\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wait_micros_sum{model=\"enc.mcirbm\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wait_micros_min{model=\"enc.mcirbm\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wait_micros_max{model=\"enc.mcirbm\"}"),
            std::string::npos)
      << text;
}

TEST(RegistryTest, RenderTextEscapesQuotesAndBackslashesInLabels) {
  Registry registry;
  // A hostile-but-legal model key: Windows-ish path with an embedded
  // quote. Both specials must come out backslash-escaped so the label
  // stays a single well-formed quoted string.
  registry.counter("reqs_total", "C:\\models\\\"prod\".mcirbm")
      .Increment(2);
  const std::string text = registry.RenderText();
  EXPECT_NE(
      text.find(
          "reqs_total{model=\"C:\\\\models\\\\\\\"prod\\\".mcirbm\"} 2"),
      std::string::npos)
      << text;
  EXPECT_EQ(EscapeLabel("a\\b\"c"), "a\\\\b\\\"c");
}

}  // namespace
}  // namespace mcirbm::obs
