#include "linalg/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace mcirbm::linalg {
namespace {

TEST(ColumnStatsTest, MeanAndStddev) {
  Matrix m{{1, 10}, {3, 10}, {5, 10}};
  const ColumnStats stats = ComputeColumnStats(m);
  EXPECT_DOUBLE_EQ(stats.mean[0], 3);
  EXPECT_DOUBLE_EQ(stats.mean[1], 10);
  EXPECT_NEAR(stats.stddev[0], std::sqrt(8.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(stats.stddev[1], 0);
}

TEST(ColumnStatsTest, SingleRowHasZeroStddev) {
  Matrix m{{5, -3}};
  const ColumnStats stats = ComputeColumnStats(m);
  EXPECT_DOUBLE_EQ(stats.mean[0], 5);
  EXPECT_DOUBLE_EQ(stats.stddev[1], 0);
}

TEST(ColumnRangeTest, MinMaxPerColumn) {
  Matrix m{{1, 5}, {-2, 7}, {0, 6}};
  const ColumnRange range = ComputeColumnRange(m);
  EXPECT_DOUBLE_EQ(range.min[0], -2);
  EXPECT_DOUBLE_EQ(range.max[0], 1);
  EXPECT_DOUBLE_EQ(range.min[1], 5);
  EXPECT_DOUBLE_EQ(range.max[1], 7);
}

TEST(ScalarStatsTest, MeanVarianceStdDev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5);
  EXPECT_DOUBLE_EQ(Variance(xs), 4);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2);
}

TEST(ScalarStatsTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(Mean({}), 0);
  EXPECT_DOUBLE_EQ(Variance({}), 0);
  EXPECT_DOUBLE_EQ(Variance({3.0}), 0);
}

TEST(PercentileTest, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 50), 2);
}

TEST(PercentileTest, InterpolatesBetweenValues) {
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 25), 2.5);
}

TEST(PercentileTest, Extremes) {
  std::vector<double> xs = {5, 1, 9};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 9);
}

TEST(PercentileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 30), 7);
}

// The definition Percentile must equal bit for bit: sort everything, then
// interpolate between the two straddling order statistics.
double SortedPercentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1 - frac) + xs[hi] * frac;
}

TEST(PercentileTest, SelectionEqualsFullSortExactly) {
  std::mt19937_64 gen(17);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + gen() % 500;
    // Few distinct values in most trials, so order statistics repeat.
    const std::uint64_t distinct = trial % 3 == 0 ? n : 1 + gen() % 8;
    std::vector<double> xs(n);
    for (double& x : xs) x = static_cast<double>(gen() % distinct) * 0.37;
    for (const double p : {0.0, 2.0, 12.5, 50.0, 75.0, 99.9, 100.0,
                           static_cast<double>(gen() % 10001) / 100.0}) {
      EXPECT_EQ(Percentile(xs, p), SortedPercentile(xs, p))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(PercentileTest, InputNotMutated) {
  std::vector<double> xs = {3, 1, 2};
  Percentile(xs, 50);
  EXPECT_EQ(xs[0], 3);  // copy semantics
}

}  // namespace
}  // namespace mcirbm::linalg
