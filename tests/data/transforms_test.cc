#include "data/transforms.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "linalg/stats.h"

namespace mcirbm::data {
namespace {

TEST(StandardizeTest, ZeroMeanUnitVariance) {
  linalg::Matrix x{{1, 100}, {2, 200}, {3, 300}, {4, 400}};
  StandardizeInPlace(&x);
  const auto stats = linalg::ComputeColumnStats(x);
  for (int j = 0; j < 2; ++j) {
    EXPECT_NEAR(stats.mean[j], 0, 1e-12);
    EXPECT_NEAR(stats.stddev[j], 1, 1e-12);
  }
}

TEST(StandardizeTest, ConstantColumnCenteredOnly) {
  linalg::Matrix x{{5, 1}, {5, 2}};
  StandardizeInPlace(&x);
  EXPECT_DOUBLE_EQ(x(0, 0), 0);
  EXPECT_DOUBLE_EQ(x(1, 0), 0);
}

TEST(MinMaxScaleTest, MapsToUnitInterval) {
  linalg::Matrix x{{-10, 0}, {0, 5}, {10, 10}};
  MinMaxScaleInPlace(&x);
  EXPECT_DOUBLE_EQ(x(0, 0), 0);
  EXPECT_DOUBLE_EQ(x(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(x(2, 0), 1);
  EXPECT_DOUBLE_EQ(x(2, 1), 1);
}

TEST(MinMaxScaleTest, ConstantColumnMapsToHalf) {
  linalg::Matrix x{{3}, {3}};
  MinMaxScaleInPlace(&x);
  EXPECT_DOUBLE_EQ(x(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(x(1, 0), 0.5);
}

TEST(BinarizeTest, ThresholdSplitsValues) {
  linalg::Matrix x{{0.2, 0.5, 0.8}};
  BinarizeInPlace(&x, 0.5);
  EXPECT_DOUBLE_EQ(x(0, 0), 0);
  EXPECT_DOUBLE_EQ(x(0, 1), 1);  // >= threshold
  EXPECT_DOUBLE_EQ(x(0, 2), 1);
}

TEST(BinarizeAtColumnMeanTest, PerColumnThreshold) {
  linalg::Matrix x{{0, 100}, {10, 0}};
  BinarizeAtColumnMeanInPlace(&x);
  // Column 0 mean=5: 0->0, 10->1. Column 1 mean=50: 100->1, 0->0.
  EXPECT_DOUBLE_EQ(x(0, 0), 0);
  EXPECT_DOUBLE_EQ(x(1, 0), 1);
  EXPECT_DOUBLE_EQ(x(0, 1), 1);
  EXPECT_DOUBLE_EQ(x(1, 1), 0);
}

TEST(L2NormalizeTest, RowsHaveUnitNorm) {
  linalg::Matrix x{{3, 4}, {0, 2}};
  L2NormalizeRowsInPlace(&x);
  EXPECT_NEAR(std::hypot(x(0, 0), x(0, 1)), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(x(0, 0), 0.6);
  EXPECT_DOUBLE_EQ(x(1, 1), 1.0);
}

TEST(L2NormalizeTest, ZeroRowUnchanged) {
  linalg::Matrix x{{0, 0}};
  L2NormalizeRowsInPlace(&x);
  EXPECT_DOUBLE_EQ(x(0, 0), 0);
  EXPECT_DOUBLE_EQ(x(0, 1), 0);
}

TEST(TransformsTest, EmptyMatrixIsSafe) {
  linalg::Matrix x;
  StandardizeInPlace(&x);
  MinMaxScaleInPlace(&x);
  BinarizeAtColumnMeanInPlace(&x);
  L2NormalizeRowsInPlace(&x);
  EXPECT_TRUE(x.empty());
}

// Each preprocessing name runs exactly its recipe; an unknown name is an
// error that leaves the data alone.
TEST(TransformsTest, ApplyTransformByName) {
  const linalg::Matrix raw{{1, 100}, {2, 300}, {7, 200}, {4, 400}};
  linalg::Matrix standardized = raw;
  StandardizeInPlace(&standardized);
  linalg::Matrix minmax = raw;
  MinMaxScaleInPlace(&minmax);
  linalg::Matrix binarized = minmax;
  BinarizeAtColumnMeanInPlace(&binarized);
  for (const auto& [name, expected] :
       {std::pair<const char*, const linalg::Matrix*>{"none", &raw},
        {"standardize", &standardized},
        {"minmax", &minmax},
        {"binarize", &binarized}}) {
    linalg::Matrix x = raw;
    ASSERT_TRUE(ApplyTransform(name, &x).ok()) << name;
    EXPECT_TRUE(x.AllClose(*expected, 0)) << name;
  }
  linalg::Matrix x = raw;
  const Status unknown = ApplyTransform("auto", &x);
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(x.AllClose(raw, 0));
}

}  // namespace
}  // namespace mcirbm::data
