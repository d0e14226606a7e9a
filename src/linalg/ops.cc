#include "linalg/ops.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <utility>

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
// A microkernel updates c[0..R)[0..W) += ap · bp over kc steps, held in
// registers. Per step, `ap` carries the R packed values of A and `bp` one
// row of B; B rows sit ldb apart. Every element takes c ← c + a·b, one
// rounded multiply and one rounded add, in ascending step order.
using MicroKernelFn = void (*)(std::size_t, const double*, const double*,
                               std::size_t, double*, std::size_t);

// Depth blocks of kKc steps keep a packed A block and one B sliver
// cache-resident.
constexpr std::size_t kKc = 256;
constexpr std::size_t kMaxMr = 8;      // the tallest tile of any set
constexpr std::size_t kMaxTile = 192;  // doubles in the largest tile

// A kernel set: one register tile, mr x nr, and its microkernels. A
// one-row shard (m = 1, e.g. a single served row) has no second row to
// share each B load with, so it widens its tile to 1 x 2nr to keep as
// many accumulators in flight.
struct KernelSet {
  std::string_view name;
  std::size_t mr;
  std::size_t nr;
  std::size_t a_copies;  // how many times the A panel stores each value
  MicroKernelFn row;     // the 1 x 2nr kernel
  // Indexed by panel rows: the last panel of a shard may hold fewer than
  // mr rows and runs only the rows it has.
  std::array<MicroKernelFn, kMaxMr + 1> panel;
};

// Builds the set of an ISA struct that provides kMr, kNr, kACopies and a
// Kernel<R, W> template.
template <typename Isa, std::size_t... R>
constexpr KernelSet MakeKernelSet(std::string_view name,
                                  std::index_sequence<R...>) {
  static_assert(sizeof...(R) == Isa::kMr && Isa::kMr <= kMaxMr);
  static_assert(Isa::kMr * Isa::kNr <= kMaxTile && 2 * Isa::kNr <= kMaxTile);
  return {name,
          Isa::kMr,
          Isa::kNr,
          Isa::kACopies,
          &Isa::template Kernel<1, 2 * Isa::kNr>,
          {nullptr, &Isa::template Kernel<R + 1, Isa::kNr>...}};
}

// The portable set, compiled on every platform: a 3 x 8 tile, 12
// accumulator registers at the baseline SSE2 flags with no spills. Each
// packed A value is stored twice, so the compiler pairs it with two
// adjacent B columns without a broadcast. At SSE2 width this beats a
// broadcast kernel like the AVX-512 one below: on an x86-64 VM broadcast
// tiles of 3 x 6, 4 x 6 and 6 x 4 ran 10-40% slower.
//
// acc[r][j ^ 1] holds c(r, j), and each column pair is updated odd column
// first. The arithmetic is the same; the layout only steers g++'s
// vectorizer, which otherwise swaps the lanes of every B load (one shuffle
// per load) and spills part of the tile.
struct Portable {
  static constexpr std::size_t kMr = 3;
  static constexpr std::size_t kNr = 8;
  static constexpr std::size_t kACopies = 2;

  template <std::size_t R, std::size_t W>
  static void Kernel(std::size_t kc, const double* ap, const double* bp,
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
};
constexpr KernelSet kPortable = MakeKernelSet<Portable>(
    "portable", std::make_index_sequence<Portable::kMr>{});

#if defined(__x86_64__) && defined(__GNUC__)
typedef double Vec8 __attribute__((vector_size(64)));

// The AVX-512F set: an 8 x 24 tile, 24 of the 32 zmm registers as
// accumulators. Per step the kernel loads the B row as W / 8 vectors,
// broadcasts each packed A value and multiplies it into them: every lane
// takes the same rounded multiply and add as the portable kernel. The
// target attribute confines the ISA to these kernels, so AVX-512
// instructions appear only in code reached after the CPU check. (A
// separate -mavx512f translation unit would not do: it can emit AVX-512
// copies of inline functions it shares with the rest of the program, such
// as std::vector members, and the linker keeps one copy.)
struct Avx512 {
  static constexpr std::size_t kMr = 8;
  static constexpr std::size_t kNr = 24;
  static constexpr std::size_t kACopies = 1;

  template <std::size_t R, std::size_t W>
  [[gnu::target("avx512f")]] static void Kernel(
      std::size_t kc, const double* ap, const double* bp, std::size_t ldb,
      double* c, std::size_t ldc) {
    constexpr std::size_t kLanes = sizeof(Vec8) / sizeof(double);
    static_assert(W % kLanes == 0);
    constexpr std::size_t kVecs = W / kLanes;
    Vec8 acc[R][kVecs];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < kVecs; ++v) {
        std::memcpy(&acc[r][v], c + r * ldc + v * kLanes, sizeof(Vec8));
      }
    }
    for (std::size_t p = 0; p < kc; ++p, ap += R, bp += ldb) {
      Vec8 b[kVecs];
      for (std::size_t v = 0; v < kVecs; ++v) {
        std::memcpy(&b[v], bp + v * kLanes, sizeof(Vec8));
      }
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += ap[r] * b[v];
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < kVecs; ++v) {
        std::memcpy(c + r * ldc + v * kLanes, &acc[r][v], sizeof(Vec8));
      }
    }
  }
};
constexpr KernelSet kAvx512 =
    MakeKernelSet<Avx512>("avx512", std::make_index_sequence<Avx512::kMr>{});
#endif

// Every set this CPU can run, widest first; the portable set is last.
const std::vector<const KernelSet*>& SupportedSets() {
  static const std::vector<const KernelSet*> sets = [] {
    std::vector<const KernelSet*> supported;
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) supported.push_back(&kAvx512);
#endif
    supported.push_back(&kPortable);
    return supported;
  }();
  return sets;
}

// Set by internal::ScopedGemmKernel; null runs the widest supported set.
std::atomic<const KernelSet*> g_scoped_set{nullptr};

const KernelSet& ActiveSet() {
  const KernelSet* scoped = g_scoped_set.load();
  return scoped != nullptr ? *scoped : *SupportedSets().front();
}

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

// C (m x n, row-major, leading dimension n) += alpha · op(A) · op(B), where
// op(A) is m x k and op(B) is k x n. Each C element receives
// c ← c + fl(fl(alpha·a(i,p))·b(p,j)) for p = 0, 1, ..., k-1 — the naive
// ascending-p loop — so the result is bit-identical at any tiling, shard
// layout, thread count or kernel set. A is packed per shard into mr-row
// panels with alpha folded in; B is read in place when its columns are
// contiguous and packed one kKc-step sliver at a time otherwise.
void GemmCore(std::size_t m, std::size_t n, std::size_t k, double alpha,
              View a, View b, double* c) {
  if (m == 0 || n == 0 || k == 0) return;
  const KernelSet& set = ActiveSet();
  const std::size_t mr = set.mr;
  // Fewest rows per shard: enough row panels to reuse each B sliver.
  std::size_t grain = std::max(11 * mr, RowGrain(k * n));
  grain = (grain + mr - 1) / mr * mr;
  parallel::ParallelFor(m, grain, [&](std::size_t i0, std::size_t i1) {
    const std::size_t rows = i1 - i0;
    const std::size_t width = rows == 1 ? 2 * set.nr : set.nr;
    const std::size_t copies = set.a_copies;
    std::vector<double> a_pack(copies * rows * std::min(k, kKc));
    std::vector<double> b_pack;  // sized when B first needs packing
    double c_edge[kMaxTile] = {};
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      for (std::size_t ir = 0; ir < rows; ir += mr) {
        const std::size_t pr = std::min(mr, rows - ir);
        double* dst = a_pack.data() + copies * ir * kc;
        for (std::size_t p = 0; p < kc; ++p) {
          for (std::size_t r = 0; r < pr; ++r, dst += copies) {
            std::fill_n(dst, copies, alpha * a(i0 + ir + r, p0 + p));
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
        for (std::size_t ir = 0; ir < rows; ir += mr) {
          const std::size_t pr = std::min(mr, rows - ir);
          const MicroKernelFn kernel = rows == 1 ? set.row : set.panel[pr];
          const double* ap = a_pack.data() + copies * ir * kc;
          double* tile = c + (i0 + ir) * n + j0;
          if (nr == width) {
            kernel(kc, ap, bp, ldb, tile, n);
            continue;
          }
          // Right edge: run the full-width kernel on a copy of the tile.
          for (std::size_t r = 0; r < pr; ++r) {
            for (std::size_t j = 0; j < width; ++j) {
              c_edge[r * width + j] = j < nr ? tile[r * n + j] : 0.0;
            }
          }
          kernel(kc, ap, bp, width, c_edge, width);
          for (std::size_t r = 0; r < pr; ++r) {
            std::copy_n(c_edge + r * width, nr, tile + r * n);
          }
        }
      }
    }
  });
}
}  // namespace

std::string_view GemmKernelName() { return ActiveSet().name; }

namespace internal {

std::vector<std::string_view> SupportedGemmKernels() {
  std::vector<std::string_view> names;
  for (const KernelSet* set : SupportedSets()) names.push_back(set->name);
  return names;
}

ScopedGemmKernel::ScopedGemmKernel(std::string_view name) {
  const std::vector<const KernelSet*>& sets = SupportedSets();
  const auto it = std::find_if(sets.begin(), sets.end(), [&](const auto* s) {
    return s->name == name;
  });
  MCIRBM_CHECK(it != sets.end()) << "GEMM kernel set '" << name
                                 << "' is not supported on this CPU";
  MCIRBM_CHECK(g_scoped_set.exchange(*it) == nullptr)
      << "ScopedGemmKernel scopes must not overlap";
}

ScopedGemmKernel::~ScopedGemmKernel() { g_scoped_set.store(nullptr); }

}  // namespace internal

void Gemm(const Matrix& a, const Matrix& b, Matrix* c) {
  MCIRBM_CHECK_EQ(a.cols(), b.rows()) << "Gemm shape mismatch";
  MCIRBM_CHECK(c != &a && c != &b) << "Gemm output aliases an operand";
  c->Resize(a.rows(), b.cols());
  GemmCore(a.rows(), b.cols(), a.cols(), 1.0, AsIs(a), AsIs(b), c->data());
}

Matrix Gemm(const Matrix& a, const Matrix& b) {
  Matrix c;
  Gemm(a, b, &c);
  return c;
}

Matrix GemmTransA(const Matrix& a, const Matrix& b) {
  MCIRBM_CHECK_EQ(a.rows(), b.rows()) << "GemmTransA shape mismatch";
  Matrix c(a.cols(), b.cols());
  GemmCore(a.cols(), b.cols(), a.rows(), 1.0, TransposeView(a), AsIs(b),
           c.data());
  return c;
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c) {
  MCIRBM_CHECK_EQ(a.cols(), b.cols()) << "GemmTransB shape mismatch";
  MCIRBM_CHECK(c != &a && c != &b) << "GemmTransB output aliases an operand";
  c->Resize(a.rows(), b.rows());
  GemmCore(a.rows(), b.rows(), a.cols(), 1.0, AsIs(a), TransposeView(b),
           c->data());
}

Matrix GemmTransB(const Matrix& a, const Matrix& b) {
  Matrix c;
  GemmTransB(a, b, &c);
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
