#include "linalg/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "rng/rng.h"

namespace mcirbm::linalg {
namespace {

Matrix RandomMatrix(std::size_t r, std::size_t c, rng::Rng* rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Gaussian();
  return m;
}

// Reference O(mnk) GEMM with no blocking, used as ground truth: each
// element is 0 plus a(i,p)·b(p,j) added in ascending p.
Matrix NaiveGemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (std::size_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  }
  return c;
}

// The GEMM core keeps the naive loop's exact rounding sequence, so results
// must match it bit for bit — no tolerance.
bool BitIdentical(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

TEST(GemmTest, SmallKnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = Gemm(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(GemmTest, IdentityIsNeutral) {
  rng::Rng rng(1);
  Matrix a = RandomMatrix(5, 5, &rng);
  Matrix id(5, 5);
  for (int i = 0; i < 5; ++i) id(i, i) = 1;
  EXPECT_TRUE(Gemm(a, id).AllClose(a, 1e-12));
  EXPECT_TRUE(Gemm(id, a).AllClose(a, 1e-12));
}

std::string KernelSetName(
    const ::testing::TestParamInfo<std::string_view>& info) {
  return std::string(info.param);
}

using Shape = std::tuple<int, int, int>;  // (m, k, n) of op(A)·op(B)

// Property sweep: every GEMM entry point, under every kernel set, equals
// the naive reference bit for bit across awkward shapes — m or n below, at
// and just past each set's register tile, k = 0, depth past one packed
// block, and the VT CD shape. The fixture runs each test under the set
// named by the first parameter.
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<std::string_view, Shape>> {
 protected:
  internal::ScopedGemmKernel kernel_{std::get<0>(GetParam())};
};

TEST_P(GemmShapeTest, MatchesNaiveReference) {
  const auto [m, k, n] = std::get<1>(GetParam());
  rng::Rng rng(1000 + m * 97 + k * 13 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(k, n, &rng);
  EXPECT_TRUE(BitIdentical(Gemm(a, b), NaiveGemm(a, b)));
}

TEST_P(GemmShapeTest, TransAMatchesExplicitTranspose) {
  const auto [m, k, n] = std::get<1>(GetParam());
  rng::Rng rng(2000 + m * 97 + k * 13 + n);
  Matrix a = RandomMatrix(k, m, &rng);  // will be transposed
  Matrix b = RandomMatrix(k, n, &rng);
  EXPECT_TRUE(BitIdentical(GemmTransA(a, b), NaiveGemm(a.Transposed(), b)));
}

TEST_P(GemmShapeTest, TransBMatchesExplicitTranspose) {
  const auto [m, k, n] = std::get<1>(GetParam());
  rng::Rng rng(3000 + m * 97 + k * 13 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(n, k, &rng);  // will be transposed
  EXPECT_TRUE(BitIdentical(GemmTransB(a, b), NaiveGemm(a, b.Transposed())));
}

// The accumulating form folds alpha into the column-major packer of its
// transposed A: out ← out + fl(fl(α·a)·b) in ascending depth.
TEST_P(GemmShapeTest, AccumulateTransAFoldsAlpha) {
  const auto [m, k, n] = std::get<1>(GetParam());
  rng::Rng rng(6000 + m * 97 + k * 13 + n);
  const Matrix a = RandomMatrix(k, m, &rng);  // will be transposed
  const Matrix b = RandomMatrix(k, n, &rng);
  Matrix out = RandomMatrix(m, n, &rng);
  const double alpha = -0.37;
  Matrix expected = out;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double c = expected(i, j);
      for (int p = 0; p < k; ++p) c += (alpha * a(p, i)) * b(p, j);
      expected(i, j) = c;
    }
  }
  AccumulateGemmTransA(alpha, a, b, &out);
  EXPECT_TRUE(BitIdentical(out, expected));
}

// The output-parameter forms resize and overwrite `c`: into a NaN-filled
// matrix of another shape they write the value forms' bytes.
TEST_P(GemmShapeTest, OutputFormsMatchValueForms) {
  const auto [m, k, n] = std::get<1>(GetParam());
  rng::Rng rng(5000 + m * 97 + k * 13 + n);
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix b = RandomMatrix(k, n, &rng);
  const Matrix bt = RandomMatrix(n, k, &rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix c(m + 1, n + 2, nan);
  Gemm(a, b, &c);
  EXPECT_TRUE(BitIdentical(c, Gemm(a, b)));
  Matrix ct(n + 2, m + 1, nan);
  GemmTransB(a, bt, &ct);
  EXPECT_TRUE(BitIdentical(ct, GemmTransB(a, bt)));
  // Reused once more at the same shape, as a training loop does.
  c.Fill(nan);
  Gemm(a, b, &c);
  EXPECT_TRUE(BitIdentical(c, Gemm(a, b)));
}

std::vector<Shape> GemmShapes() {
  std::vector<Shape> shapes = {
      {1, 1, 1}, {3, 5, 2}, {7, 64, 9}, {65, 3, 64}, {64, 64, 64},
      {100, 17, 65}, {2, 129, 1},
      // m and n in {1, 3, 4, 5, 8, 9}: below, at and past the 3 x 8 tile.
      {1, 7, 9}, {3, 6, 8}, {4, 9, 3}, {5, 4, 1}, {8, 5, 5}, {9, 3, 4},
      {1, 899, 96},
      // k = 0: the product is all zeros.
      {4, 0, 5},
      // Several row shards, depth past one packed block, ragged edges.
      {70, 513, 13},
      // A full shard of 11 panels followed by a one-row shard, which runs
      // the widened 1 x 2nr tile: at the one-row width of each set (16
      // for portable, 48 for avx512) and one column past it. k·n >= 2048
      // keeps the minimum shard size in force.
      {34, 100, 20}, {34, 130, 16}, {34, 130, 17},
      {89, 130, 48}, {89, 130, 49},
      // The packers: whole 8 x 8 blocks with ragged row and depth edges
      // ({16, 20, 30}); m = 1, depth past one block and a transposed B
      // whose width is no multiple of any tile ({1, 300, 50}); a one-row
      // last shard after a full one, at each set's panel height, with
      // depth past one block ({34, 300, 17}, {89, 300, 49}).
      {16, 20, 30}, {1, 300, 50}, {34, 300, 17}, {89, 300, 49},
      {11, 300, 10},
      // The VT CD shape: 879 rows of 899 visible units, 96 hidden.
      {879, 899, 96}};
  // m up to, at and past the 8-row tile; n below, at and past the
  // 24-column tile and its 48-column one-row width.
  for (int m : {5, 6, 7, 8, 9}) {
    for (int n : {23, 24, 25, 47, 48, 49}) {
      shapes.emplace_back(m, 3 + n % 11, n);
    }
  }
  return shapes;
}

std::string ShapeCaseName(
    const ::testing::TestParamInfo<GemmShapeTest::ParamType>& info) {
  const auto [m, k, n] = std::get<1>(info.param);
  return std::string(std::get<0>(info.param)) + "_" + std::to_string(m) +
         "x" + std::to_string(k) + "x" + std::to_string(n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Combine(::testing::ValuesIn(internal::SupportedGemmKernels()),
                       ::testing::ValuesIn(GemmShapes())),
    ShapeCaseName);

// Runs each test under the kernel set named by the parameter: every set
// this CPU supports, the portable set always among them.
class GemmKernelTest : public ::testing::TestWithParam<std::string_view> {
 protected:
  internal::ScopedGemmKernel kernel_{GetParam()};
};

TEST_P(GemmKernelTest, ReportsTheSetItRuns) {
  EXPECT_EQ(GemmKernelName(), GetParam());
}

// A zero in A does not hide a NaN in the B row it multiplies: 0·NaN is
// NaN, as the naive loop computes it.
TEST_P(GemmKernelTest, NanInBPropagatesBehindZeroInA) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Matrix a{{0.0, 1.0}};
  const Matrix b{{nan, 2.0}, {3.0, 4.0}};
  const Matrix c = Gemm(a, b);
  EXPECT_TRUE(std::isnan(c(0, 0)));
  EXPECT_EQ(c(0, 1), 4.0);
  EXPECT_TRUE(std::isnan(GemmTransA(a.Transposed(), b)(0, 0)));
  Matrix out(1, 2);
  AccumulateGemmTransA(2.0, a.Transposed(), b, &out);
  EXPECT_TRUE(std::isnan(out(0, 0)));
  EXPECT_EQ(out(0, 1), 8.0);
}

// The same at shapes the vector packers handle in whole blocks: a zero
// column of A meets NaN, +∞ and −∞ in the B row it multiplies, through
// the row-major and column-major A packers and the shared transposed-B
// pack. Each affected column is NaN, bit for bit as the naive loop.
TEST_P(GemmKernelTest, NonFiniteBBehindZeroInAAtPackedShapes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  rng::Rng rng(6);
  const std::size_t m = 17, k = 20, n = 30, zero_p = 5;
  Matrix a = RandomMatrix(m, k, &rng);
  for (std::size_t i = 0; i < m; ++i) a(i, zero_p) = 0.0;
  Matrix b = RandomMatrix(k, n, &rng);
  b(zero_p, 3) = nan;
  b(zero_p, 7) = inf;
  b(zero_p, 29) = -inf;
  const Matrix expected = NaiveGemm(a, b);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j : {3, 7, 29}) EXPECT_TRUE(std::isnan(expected(i, j)));
  }
  EXPECT_TRUE(BitIdentical(Gemm(a, b), expected));
  EXPECT_TRUE(BitIdentical(GemmTransA(a.Transposed(), b), expected));
  EXPECT_TRUE(BitIdentical(GemmTransB(a, b.Transposed()), expected));
  Matrix out(m, n);
  AccumulateGemmTransA(1.0, a.Transposed(), b, &out);
  EXPECT_TRUE(BitIdentical(out, expected));
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, GemmKernelTest,
    ::testing::ValuesIn(internal::SupportedGemmKernels()), KernelSetName);

TEST(GemmKernelSetTest, WidestSupportedSetRunsByDefault) {
  const std::vector<std::string_view> sets = internal::SupportedGemmKernels();
  ASSERT_FALSE(sets.empty());
  EXPECT_EQ(sets.back(), "portable");
  EXPECT_EQ(GemmKernelName(), sets.front());
}

// Every set writes the same bytes as the portable set at the VT CD shape
// (879 rows of 899 visible units, 96 hidden), in all four orientations,
// and for VT's pairwise distances (879 x 879 over 899 features).
TEST(GemmKernelSetTest, SetsAgreeBitwiseAtVtCdShape) {
  rng::Rng rng(5);
  const Matrix v = RandomMatrix(879, 899, &rng);
  const Matrix w = RandomMatrix(899, 96, &rng);
  const Matrix h = RandomMatrix(879, 96, &rng);
  const Matrix grad = RandomMatrix(899, 96, &rng);
  const auto products = [&] {
    Matrix accumulated = grad;
    AccumulateGemmTransA(-0.37, v, h, &accumulated);
    return std::vector<Matrix>{Gemm(v, w), GemmTransA(v, h),
                               GemmTransB(h, w), accumulated,
                               PairwiseSquaredDistances(v)};
  };
  std::vector<Matrix> reference;
  {
    internal::ScopedGemmKernel portable("portable");
    reference = products();
  }
  for (std::string_view set : internal::SupportedGemmKernels()) {
    SCOPED_TRACE(std::string(set));
    internal::ScopedGemmKernel scope(set);
    const std::vector<Matrix> got = products();
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(BitIdentical(got[i], reference[i])) << "product " << i;
    }
  }
}

TEST(AddRowVectorTest, AddsToEveryRow) {
  Matrix m(2, 3, 1.0);
  AddRowVector(&m, {1, 2, 3});
  EXPECT_EQ(m(0, 0), 2);
  EXPECT_EQ(m(1, 2), 4);
}

TEST(ReductionTest, ColSumsMeansRowSums) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const auto cs = ColSums(m);
  EXPECT_DOUBLE_EQ(cs[0], 9);
  EXPECT_DOUBLE_EQ(cs[1], 12);
  const auto cm = ColMeans(m);
  EXPECT_DOUBLE_EQ(cm[0], 3);
  const auto rs = RowSums(m);
  EXPECT_DOUBLE_EQ(rs[2], 11);
}

TEST(SigmoidTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Sigmoid(0), 0.5);
  EXPECT_NEAR(Sigmoid(2), 1.0 / (1.0 + std::exp(-2)), 1e-15);
}

TEST(SigmoidTest, StableAtExtremes) {
  EXPECT_NEAR(Sigmoid(1000), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000), 0.0, 1e-12);
  EXPECT_FALSE(std::isnan(Sigmoid(-1e308)));
}

TEST(SigmoidTest, SymmetryProperty) {
  for (double x : {0.1, 0.7, 3.0, 17.0}) {
    EXPECT_NEAR(Sigmoid(x) + Sigmoid(-x), 1.0, 1e-12);
  }
}

TEST(SigmoidInPlaceTest, MapsWholeMatrix) {
  Matrix m{{0, 100}, {-100, 0}};
  SigmoidInPlace(&m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.5);
  EXPECT_NEAR(m(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(m(1, 0), 0.0, 1e-12);
}

TEST(SigmoidDerivTest, MatchesFormula) {
  Matrix a{{0.2, 0.5, 0.9}};
  Matrix d = SigmoidDeriv(a);
  EXPECT_NEAR(d(0, 0), 0.16, 1e-12);
  EXPECT_NEAR(d(0, 1), 0.25, 1e-12);
  EXPECT_NEAR(d(0, 2), 0.09, 1e-12);
}

TEST(SquaredDistanceTest, BasicAndZero) {
  std::vector<double> a = {1, 2}, b = {4, 6};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, a), 0);
}

// The distance kernel of every set writes SquaredDistance's bytes: row
// counts below, at and past one 8-row panel and one two-panel tile, center
// counts below, at and past one 4-center tile, and row ranges that start
// past row 0.
class SquaredDistancesTest : public ::testing::TestWithParam<std::string_view> {
 protected:
  internal::ScopedGemmKernel kernel_{GetParam()};
};

TEST_P(SquaredDistancesTest, MatchesSquaredDistanceBitwise) {
  const std::size_t d = 13;
  for (std::size_t n : {1, 7, 8, 9, 257}) {
    for (std::size_t k : {1, 3, 5, 9}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      rng::Rng rng(n * 31 + k);
      const Matrix x = RandomMatrix(n, d, &rng);
      const Matrix centers = RandomMatrix(k, d, &rng);
      for (const auto& [begin, end] :
           {std::pair<std::size_t, std::size_t>{0, n}, {n / 2, n},
            {n / 3, n - n / 4}}) {
        std::vector<double> got((end - begin) * k);
        SquaredDistances(x, begin, end, centers.data(), k, got.data());
        std::vector<double> want;
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t c = 0; c < k; ++c) {
            want.push_back(SquaredDistance(x.Row(i), centers.Row(c)));
          }
        }
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "rows [" << begin << ", " << end << ")";
      }
    }
  }
}

// One feature; one past a 64-feature block; VT's 899, where each lane's
// sum runs long.
TEST_P(SquaredDistancesTest, MatchesAtOneAndManyFeatures) {
  for (std::size_t d : {1, 65, 899}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    rng::Rng rng(d);
    const Matrix x = RandomMatrix(21, d, &rng);
    const Matrix centers = RandomMatrix(3, d, &rng);
    std::vector<double> got(21 * 3);
    SquaredDistances(x, 0, 21, centers.data(), 3, got.data());
    for (std::size_t i = 0; i < 21; ++i) {
      for (std::size_t c = 0; c < 3; ++c) {
        const double want = SquaredDistance(x.Row(i), centers.Row(c));
        EXPECT_EQ(std::memcmp(&got[i * 3 + c], &want, sizeof(double)), 0)
            << "row " << i << " center " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, SquaredDistancesTest,
    ::testing::ValuesIn(internal::SupportedGemmKernels()), KernelSetName);

TEST(PairwiseSquaredDistancesTest, MatchesDirectComputation) {
  rng::Rng rng(7);
  Matrix m = RandomMatrix(10, 5, &rng);
  Matrix d = PairwiseSquaredDistances(m);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(d(i, j), SquaredDistance(m.Row(i), m.Row(j)), 1e-8);
      EXPECT_DOUBLE_EQ(d(i, j), d(j, i));
    }
  }
}

TEST(PairwiseSquaredDistancesTest, NonNegativeUnderCancellation) {
  // Nearly identical rows exercise the numeric guard against negative
  // values from the |a|²+|b|²−2ab expansion.
  Matrix m(2, 3, 1e8);
  m(1, 2) += 1e-4;
  Matrix d = PairwiseSquaredDistances(m);
  EXPECT_GE(d(0, 1), 0.0);
}

TEST(DotTest, Basic) {
  std::vector<double> a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32);
}

TEST(ApplyTest, ElementwiseMap) {
  Matrix m{{1, 4}, {9, 16}};
  Apply(&m, [](double v) { return std::sqrt(v); });
  EXPECT_DOUBLE_EQ(m(1, 0), 3);
}

}  // namespace
}  // namespace mcirbm::linalg
