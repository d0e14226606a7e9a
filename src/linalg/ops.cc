#include "linalg/ops.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "parallel/thread_pool.h"

namespace mcirbm::linalg {

namespace {
// Rows per shard so one shard carries ~64k multiply-adds. Depends only on
// the problem shape (never the thread count), so shard boundaries — and
// therefore results — are identical at any pool width. Small problems
// collapse to a single shard, which ParallelFor runs inline.
std::size_t RowGrain(std::size_t unit_cost) {
  constexpr std::size_t kTargetShardWork = std::size_t{1} << 16;
  return std::max<std::size_t>(
      1, kTargetShardWork / std::max<std::size_t>(1, unit_cost));
}

// --- The GEMM core: C += alpha · op(A) · op(B) -----------------------------
//
// Register tile kMr x kNr (3 x 8 measured fastest at the baseline SSE2
// flags: 12 accumulator registers, no spills). A one-row shard (m = 1,
// e.g. a single served row) has no second row to share each B load with,
// so it widens its tile to 1 x kWideNr to keep as many accumulators in
// flight. Depth blocks of kKc steps keep a packed A block and one B sliver
// cache-resident.
constexpr std::size_t kMr = 3;
constexpr std::size_t kNr = 8;
constexpr std::size_t kWideNr = 2 * kNr;
constexpr std::size_t kKc = 256;
// Fewest rows per shard: enough row panels to reuse each B sliver, few
// enough that a 64-row serve chunk still splits across two threads.
constexpr std::size_t kMinShardRows = 11 * kMr;

// A strided operand: element (i, j) sits at data[i * row_stride +
// j * col_stride], so a transpose is a view, not a copy.
struct View {
  const double* data;
  std::size_t row_stride;
  std::size_t col_stride;

  double operator()(std::size_t i, std::size_t j) const {
    return data[i * row_stride + j * col_stride];
  }
};

View AsIs(const Matrix& x) { return {x.data(), x.cols(), 1}; }
View TransposeView(const Matrix& x) { return {x.data(), 1, x.cols()}; }

// c[0..R)[0..W) += ap · bp over kc steps, held in registers. Per step, `ap`
// carries the R packed values of A, each stored twice so the compiler
// pairs a value with two adjacent B columns without a broadcast; `bp` rows
// sit ldb apart. Every element takes c ← c + a·b, one rounded multiply and
// one rounded add, in ascending step order.
//
// acc[r][j ^ 1] holds c(r, j), and each column pair is updated odd column
// first. The arithmetic is the same; the layout only steers g++'s
// vectorizer, which otherwise swaps the lanes of every B load (one shuffle
// per load) and spills part of the tile.
template <std::size_t R, std::size_t W>
void MicroKernel(std::size_t kc, const double* ap, const double* bp,
                 std::size_t ldb, double* c, std::size_t ldc) {
  static_assert(W % 2 == 0);
  double acc[R][W];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t j = 0; j < W; ++j) acc[r][j ^ 1] = c[r * ldc + j];
  }
  for (std::size_t p = 0; p < kc; ++p, ap += 2 * R, bp += ldb) {
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t j = 0; j < W; j += 2) {
        acc[r][j] += ap[2 * r + 1] * bp[j + 1];  // column j + 1
        acc[r][j + 1] += ap[2 * r] * bp[j];      // column j
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t j = 0; j < W; ++j) c[r * ldc + j] = acc[r][j ^ 1];
  }
}

using MicroKernelFn = void (*)(std::size_t, const double*, const double*,
                               std::size_t, double*, std::size_t);
// Indexed by panel rows: the last panel of a shard may hold fewer than kMr
// rows and runs only the rows it has.
constexpr MicroKernelFn kMicroKernels[] = {
    nullptr, &MicroKernel<1, kNr>, &MicroKernel<2, kNr>, &MicroKernel<3, kNr>};
static_assert(std::size(kMicroKernels) == kMr + 1);
static_assert(kWideNr <= kMr * kNr);  // both tiles fit the edge buffer

// C (m x n, row-major, leading dimension n) += alpha · op(A) · op(B), where
// op(A) is m x k and op(B) is k x n. Each C element receives
// c ← c + fl(fl(alpha·a(i,p))·b(p,j)) for p = 0, 1, ..., k-1 — the naive
// ascending-p loop — so the result is bit-identical at any tiling, shard
// layout or thread count. A is packed per shard into kMr-row panels with
// alpha folded in; B is read in place when its columns are contiguous and
// packed one kKc-step sliver at a time otherwise.
void GemmCore(std::size_t m, std::size_t n, std::size_t k, double alpha,
              View a, View b, double* c) {
  if (m == 0 || n == 0 || k == 0) return;
  std::size_t grain = std::max(kMinShardRows, RowGrain(k * n));
  grain = (grain + kMr - 1) / kMr * kMr;
  parallel::ParallelFor(m, grain, [&](std::size_t i0, std::size_t i1) {
    const std::size_t rows = i1 - i0;
    const std::size_t width = rows == 1 ? kWideNr : kNr;
    std::vector<double> a_pack(2 * rows * std::min(k, kKc));
    std::vector<double> b_pack;  // sized when B first needs packing
    double c_edge[kMr * kNr] = {};
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      for (std::size_t ir = 0; ir < rows; ir += kMr) {
        const std::size_t mr = std::min(kMr, rows - ir);
        double* dst = a_pack.data() + 2 * ir * kc;
        for (std::size_t p = 0; p < kc; ++p) {
          for (std::size_t r = 0; r < mr; ++r, dst += 2) {
            dst[0] = dst[1] = alpha * a(i0 + ir + r, p0 + p);
          }
        }
      }
      for (std::size_t j0 = 0; j0 < n; j0 += width) {
        const std::size_t nr = std::min(width, n - j0);
        const bool in_place = b.col_stride == 1 && nr == width;
        if (!in_place) {
          // Zero columns past nr only feed c_edge columns never copied out.
          b_pack.resize(kKc * width);
          for (std::size_t p = 0; p < kc; ++p) {
            for (std::size_t j = 0; j < width; ++j) {
              b_pack[p * width + j] = j < nr ? b(p0 + p, j0 + j) : 0.0;
            }
          }
        }
        const double* bp =
            in_place ? b.data + p0 * b.row_stride + j0 : b_pack.data();
        const std::size_t ldb = in_place ? b.row_stride : width;
        for (std::size_t ir = 0; ir < rows; ir += kMr) {
          const std::size_t mr = std::min(kMr, rows - ir);
          const MicroKernelFn kernel =
              rows == 1 ? &MicroKernel<1, kWideNr> : kMicroKernels[mr];
          const double* ap = a_pack.data() + 2 * ir * kc;
          double* tile = c + (i0 + ir) * n + j0;
          if (nr == width) {
            kernel(kc, ap, bp, ldb, tile, n);
            continue;
          }
          // Right edge: run the full-width kernel on a copy of the tile.
          for (std::size_t r = 0; r < mr; ++r) {
            for (std::size_t j = 0; j < width; ++j) {
              c_edge[r * width + j] = j < nr ? tile[r * n + j] : 0.0;
            }
          }
          kernel(kc, ap, bp, width, c_edge, width);
          for (std::size_t r = 0; r < mr; ++r) {
            std::copy_n(c_edge + r * width, nr, tile + r * n);
          }
        }
      }
    }
  });
}
}  // namespace

Matrix Gemm(const Matrix& a, const Matrix& b) {
  MCIRBM_CHECK_EQ(a.cols(), b.rows()) << "Gemm shape mismatch";
  Matrix c(a.rows(), b.cols());
  GemmCore(a.rows(), b.cols(), a.cols(), 1.0, AsIs(a), AsIs(b), c.data());
  return c;
}

Matrix GemmTransA(const Matrix& a, const Matrix& b) {
  MCIRBM_CHECK_EQ(a.rows(), b.rows()) << "GemmTransA shape mismatch";
  Matrix c(a.cols(), b.cols());
  GemmCore(a.cols(), b.cols(), a.rows(), 1.0, TransposeView(a), AsIs(b),
           c.data());
  return c;
}

Matrix GemmTransB(const Matrix& a, const Matrix& b) {
  MCIRBM_CHECK_EQ(a.cols(), b.cols()) << "GemmTransB shape mismatch";
  Matrix c(a.rows(), b.rows());
  GemmCore(a.rows(), b.rows(), a.cols(), 1.0, AsIs(a), TransposeView(b),
           c.data());
  return c;
}

void AccumulateGemmTransA(double alpha, const Matrix& a, const Matrix& b,
                          Matrix* out) {
  MCIRBM_CHECK_EQ(a.rows(), b.rows());
  MCIRBM_CHECK(out->rows() == a.cols() && out->cols() == b.cols());
  GemmCore(a.cols(), b.cols(), a.rows(), alpha, TransposeView(a), AsIs(b),
           out->data());
}

void AddRowVector(Matrix* m, const std::vector<double>& v) {
  MCIRBM_CHECK_EQ(m->cols(), v.size());
  const std::size_t cols = m->cols();
  parallel::ParallelFor(
      m->rows(), RowGrain(cols), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          double* row = m->data() + i * cols;
          for (std::size_t j = 0; j < cols; ++j) row[j] += v[j];
        }
      });
}

std::vector<double> ColSums(const Matrix& m) {
  std::vector<double> s(m.cols(), 0.0);
  // Partitioned by *column*: each shard owns a column slice and walks the
  // rows in order, so every s[j] accumulates in exactly the serial order.
  const std::size_t rows = m.rows(), cols = m.cols();
  parallel::ParallelFor(
      cols, RowGrain(rows), [&](std::size_t j0, std::size_t j1) {
        for (std::size_t i = 0; i < rows; ++i) {
          const double* row = m.data() + i * cols;
          for (std::size_t j = j0; j < j1; ++j) s[j] += row[j];
        }
      });
  return s;
}

std::vector<double> ColMeans(const Matrix& m) {
  MCIRBM_CHECK_GT(m.rows(), 0u);
  std::vector<double> s = ColSums(m);
  for (double& v : s) v /= static_cast<double>(m.rows());
  return s;
}

std::vector<double> RowSums(const Matrix& m) {
  std::vector<double> s(m.rows(), 0.0);
  const std::size_t cols = m.cols();
  parallel::ParallelFor(
      m.rows(), RowGrain(cols), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const double* row = m.data() + i * cols;
          double acc = 0;
          for (std::size_t j = 0; j < cols; ++j) acc += row[j];
          s[i] = acc;
        }
      });
  return s;
}

void Apply(Matrix* m, const std::function<double(double)>& f) {
  double* p = m->data();
  const std::size_t n = m->size();
  parallel::ParallelFor(n, RowGrain(4), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) p[i] = f(p[i]);
  });
}

double Sigmoid(double x) {
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

void SigmoidInPlace(Matrix* m) {
  double* p = m->data();
  const std::size_t n = m->size();
  parallel::ParallelFor(n, RowGrain(8), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) p[i] = Sigmoid(p[i]);
  });
}

Matrix SigmoidDeriv(const Matrix& a) {
  Matrix d(a.rows(), a.cols());
  const double* src = a.data();
  double* dst = d.data();
  parallel::ParallelFor(
      a.size(), RowGrain(4), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) dst[i] = src[i] * (1 - src[i]);
      });
  return d;
}

double SquaredDistance(std::span<const double> a,
                       std::span<const double> b) {
  MCIRBM_DCHECK(a.size() == b.size());
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

Matrix PairwiseSquaredDistances(const Matrix& m) {
  const std::size_t n = m.rows();
  Matrix gram = GemmTransB(m, m);  // n x n
  std::vector<double> sq(n);
  for (std::size_t i = 0; i < n; ++i) sq[i] = gram(i, i);
  Matrix d(n, n);
  // Full-row expansion (rather than mirrored upper-triangle writes) keeps
  // every element owned by exactly one row shard; the symmetric formula
  // yields the identical value for (i,j) and (j,i).
  parallel::ParallelFor(n, RowGrain(n), [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      double* drow = d.data() + i * n;
      const double* grow = gram.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        double v = sq[i] + sq[j] - 2.0 * grow[j];
        if (v < 0) v = 0;  // numeric guard
        drow[j] = v;
      }
      drow[i] = 0.0;
    }
  });
  return d;
}

double Dot(std::span<const double> a, std::span<const double> b) {
  MCIRBM_DCHECK(a.size() == b.size());
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace mcirbm::linalg
