// Matrix kernels: GEMM variants, row/column reductions, element maps.
//
// GEMM variants are named by operand orientation so call sites read like the
// math: Gemm(A,B) = A·B; GemmTransA(A,B) = Aᵀ·B; GemmTransB(A,B) = A·Bᵀ.
// All four run one core, C += α·op(A)·op(B) over strided operand views,
// which packs each operand once per call and then runs register tiles:
//   - A: each row shard packs its own rows into small row panels with α
//     folded in, through the kernel set's packer for A's layout in memory
//     (row-major, or column-major for the transposed operand);
//   - B: read in place where its rows are contiguous; the slivers that
//     cannot be (all of a transposed B, the ragged right edge of any other)
//     are packed once, before the shards start, and shared by all of them;
//   - register-blocked microkernels do the multiply-adds.
// The microkernels, the packers and the squared-distance kernel behind
// SquaredDistances (K-means' distances) come from one kernel set, picked
// once, on first use, from the CPU: AVX-512F where the CPU supports it,
// else the portable C++ set that every platform compiles. Nothing else
// selects it. Affinity propagation's message-passing sweep follows the same
// choice (it reads GemmKernelName), so it has no CPU probe of its own.
//
// Exactness contract: every output element is computed as
//   c ← 0 (or out(i,j)),  then  c ← c + fl(fl(α·a(i,p))·b(p,j))
// for p = 0, 1, ..., k-1 — a separate rounded multiply and add, in
// ascending p, exactly the naive triple loop (α = 1 for the three
// non-accumulating forms). Results are therefore bit-identical to that
// reference at any tiling, thread count and kernel set. Zeros in A are not
// skipped, so a NaN or infinity in B propagates even behind a zero.
#ifndef MCIRBM_LINALG_OPS_H_
#define MCIRBM_LINALG_OPS_H_

#include <functional>
#include <string_view>
#include <vector>

#include "linalg/matrix.h"

namespace mcirbm::linalg {

/// C = A·B. Shapes: (m,k)·(k,n) -> (m,n).
Matrix Gemm(const Matrix& a, const Matrix& b);

/// *c = A·B, the output-parameter form: `c` is resized to (m,n) and
/// zeroed, reusing its storage when it is large enough, so a loop that
/// calls it with the same `c` allocates once. `c` must not be `a` or `b`.
void Gemm(const Matrix& a, const Matrix& b, Matrix* c);

/// C = Aᵀ·B. Shapes: (k,m)ᵀ·(k,n) -> (m,n).
Matrix GemmTransA(const Matrix& a, const Matrix& b);

/// C = A·Bᵀ. Shapes: (m,k)·(n,k)ᵀ -> (m,n).
Matrix GemmTransB(const Matrix& a, const Matrix& b);

/// *c = A·Bᵀ, the output-parameter form (as Gemm's above).
void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c);

/// out += alpha · Aᵀ·B (accumulating version used by gradient code).
void AccumulateGemmTransA(double alpha, const Matrix& a, const Matrix& b,
                          Matrix* out);

/// The kernel set the GEMM core, SquaredDistances and affinity
/// propagation's sweep run: "avx512" or "portable".
std::string_view GemmKernelName();

namespace internal {
/// Every kernel set this CPU can run, widest first; "portable" is last.
std::vector<std::string_view> SupportedGemmKernels();

/// While alive, the GEMM core, its packers, SquaredDistances and affinity
/// propagation's sweep run the named set (one of SupportedGemmKernels())
/// instead of the widest. A test seam for checking each set; scopes must
/// not overlap.
class ScopedGemmKernel {
 public:
  explicit ScopedGemmKernel(std::string_view name);
  ~ScopedGemmKernel();
  ScopedGemmKernel(const ScopedGemmKernel&) = delete;
  ScopedGemmKernel& operator=(const ScopedGemmKernel&) = delete;
};
}  // namespace internal

/// Adds `v` (length cols) to every row of `m` in place.
void AddRowVector(Matrix* m, const std::vector<double>& v);

/// Column sums: length cols().
std::vector<double> ColSums(const Matrix& m);

/// Column means: length cols(); requires rows() > 0.
std::vector<double> ColMeans(const Matrix& m);

/// Row sums: length rows().
std::vector<double> RowSums(const Matrix& m);

/// Applies f element-wise in place.
void Apply(Matrix* m, const std::function<double(double)>& f);

/// Element-wise logistic sigmoid, numerically stable for large |x|.
double Sigmoid(double x);

/// Applies the logistic sigmoid element-wise in place.
void SigmoidInPlace(Matrix* m);

/// out(i,j) = a(i,j) * (1 - a(i,j)); the sigmoid derivative given sigmoid
/// activations. Used heavily by the sls gradient.
Matrix SigmoidDeriv(const Matrix& a);

/// Squared Euclidean distance between two equal-length spans:
/// s ← 0, then s ← s + fl(fl(a[j]−b[j])²) for j = 0, 1, ... in order.
double SquaredDistance(std::span<const double> a, std::span<const double> b);

/// Squared distances from rows [begin, end) of `x` to the k rows of
/// `centers` (k x x.cols(), row-major): out[(i − begin)·k + c] is
/// SquaredDistance(x.Row(i), center c), bit for bit. The kernel set's
/// distance kernel holds 8 rows per vector, one row per lane, and each lane
/// adds fl(fl(x−c)²) in ascending feature order, so the result depends on
/// neither the set, the row range nor the thread count. It reads x in
/// place, transposing small blocks of rows in registers; it allocates
/// nothing.
void SquaredDistances(const Matrix& x, std::size_t begin, std::size_t end,
                      const double* centers, std::size_t k, double* out);

/// Dense pairwise squared-distance matrix between rows of `m` (n x n,
/// symmetric, zero diagonal). Uses the expansion |a|²+|b|²−2a·b with a GEMM.
Matrix PairwiseSquaredDistances(const Matrix& m);

/// Dot product of two equal-length spans.
double Dot(std::span<const double> a, std::span<const double> b);

}  // namespace mcirbm::linalg

#endif  // MCIRBM_LINALG_OPS_H_
