// Matrix kernels: GEMM variants, row/column reductions, element maps.
//
// GEMM variants are named by operand orientation so call sites read like the
// math: Gemm(A,B) = A·B; GemmTransA(A,B) = Aᵀ·B; GemmTransB(A,B) = A·Bᵀ.
// All four run one core, C += α·op(A)·op(B) over strided operand views: A
// is packed into small row panels with α folded in, B is read in place (or
// packed when transposed), and register-blocked microkernels do the
// multiply-adds. The microkernels come from one kernel set, picked once, on
// first use, from the CPU: AVX-512F where the CPU supports it, else the
// portable C++ set that every platform compiles. Nothing else selects it.
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

/// The kernel set the GEMM core runs: "avx512" or "portable".
std::string_view GemmKernelName();

namespace internal {
/// Every kernel set this CPU can run, widest first; "portable" is last.
std::vector<std::string_view> SupportedGemmKernels();

/// While alive, the GEMM core runs the named set (one of
/// SupportedGemmKernels()) instead of the widest. A test seam for checking
/// each set; scopes must not overlap.
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

/// Squared Euclidean distance between two equal-length spans.
double SquaredDistance(std::span<const double> a, std::span<const double> b);

/// Dense pairwise squared-distance matrix between rows of `m` (n x n,
/// symmetric, zero diagonal). Uses the expansion |a|²+|b|²−2a·b with a GEMM.
Matrix PairwiseSquaredDistances(const Matrix& m);

/// Dot product of two equal-length spans.
double Dot(std::span<const double> a, std::span<const double> b);

}  // namespace mcirbm::linalg

#endif  // MCIRBM_LINALG_OPS_H_
