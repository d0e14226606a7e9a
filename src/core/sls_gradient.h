// Gradients of the constrict/disperse supervision objective (Section IV).
//
// For one "view" (the data view V,H or the reconstructed view Ṽ,H̃) the
// objective over locally credible clusters H_1..H_K is (Eq. 14/15):
//
//   L = (1/Nh) Σ_k Σ_{s,t∈H_k} ||h_s − h_t||²
//     − (1/N_C) Σ_{p<q} ||C_p − C_q||²
//
// where h_s = σ(b + v_s W) are hidden features, C_k = σ(b + O_k W) is the
// hidden image of the visible cluster center O_k (mean of cluster-k rows),
// Nh = number of credible instances in the view, N_C = K(K−1)/2, and the
// pairwise sum runs over ordered pairs (the literal reading of Eq. 14).
//
// ∂L/∂W and ∂L/∂b are Eq. 27/31 (data view) and Eq. 28/32 (recon view).
// Two exact implementations are provided:
//  * Naive — the literal O(ΣN_k²·d) pairwise translation of Eq. 27/31;
//    kept as the executable specification and for property testing.
//  * Fast — the O(ΣN_k·d) reduction via
//      Σ_{s,t}(a_s−a_t)(c_s−c_t) = 2N·Σ_s a_s c_s − 2(Σ_s a_s)(Σ_s c_s),
//    which turns the per-cluster sums into GEMMs.
#ifndef MCIRBM_CORE_SLS_GRADIENT_H_
#define MCIRBM_CORE_SLS_GRADIENT_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "voting/local_supervision.h"

namespace mcirbm::core {

/// Credible-cluster membership restricted to the rows of one batch.
/// Row indices refer to positions *within the batch matrices*.
struct SupervisionBatch {
  /// members[k] = batch-row indices of credible cluster k; clusters with
  /// fewer than 2 in-batch members are dropped (no pair to constrict).
  std::vector<std::vector<std::size_t>> members;

  /// Total credible instances across the retained clusters (the view's Nh).
  std::size_t num_credible = 0;

  /// Σ_k N_k(N_k−1): number of ordered within-cluster pairs; the
  /// denominator of the pair-count normalization (see SlsGradientOptions).
  std::size_t num_ordered_pairs = 0;

  bool empty() const { return members.size() < 1 || num_credible == 0; }
  std::size_t num_clusters() const { return members.size(); }
};

/// Restricts `supervision` to the batch rows `batch_indices` (global row
/// ids, in batch order).
SupervisionBatch BuildSupervisionBatch(
    const voting::LocalSupervision& supervision,
    const std::vector<std::size_t>& batch_indices);

/// Output accumulators for one view's supervision gradient. Shapes must be
/// pre-sized: dw (nv x nh), db (nh). Values are *added* into the buffers.
struct SlsGradientOutput {
  linalg::Matrix* dw;
  std::vector<double>* db;
};

/// Options controlling which objective terms are evaluated.
struct SlsGradientOptions {
  bool include_disperse = true;
  double scale = 1.0;  ///< multiplies the whole contribution

  /// Relative weight of the dispersion term against the constriction term.
  double disperse_weight = 1.0;

  /// Normalization of the constriction sum. The paper's Eq. 13 divides the
  /// Σ_k Σ_{s,t∈H_k} pair sum by Nh (the credible-instance count), which
  /// leaves the term ~Nh times larger than the per-pair-normalized center
  /// dispersion; in practice that imbalance collapses the whole hidden
  /// space onto one point before dispersion can act. With `true`
  /// (default) the pair sum is divided by Σ_k N_k(N_k−1) — the ordered-pair
  /// count — making both terms per-pair quantities of comparable
  /// magnitude. `false` reproduces the literal Eq. 13 for the ablation
  /// bench.
  bool normalize_by_pairs = true;
};

/// Literal pairwise implementation of ∂L/∂W (Eq. 27/28) and ∂L/∂b
/// (Eq. 31/32) for one view.
///
/// `v`: batch visible rows (data or reconstructed), m x nv.
/// `h`: sigmoid hidden features of `v`, m x nh.
/// `w`, `b`: current parameters (needed for the mapped centers C_k).
void AccumulateSlsGradientNaive(const linalg::Matrix& v,
                                const linalg::Matrix& h,
                                const SupervisionBatch& batch,
                                const linalg::Matrix& w,
                                const std::vector<double>& b,
                                const SlsGradientOptions& options,
                                SlsGradientOutput out);

/// GEMM-reduced implementation; numerically identical to the naive form
/// (asserted to 1e-9 by property tests).
void AccumulateSlsGradientFast(const linalg::Matrix& v,
                               const linalg::Matrix& h,
                               const SupervisionBatch& batch,
                               const linalg::Matrix& w,
                               const std::vector<double>& b,
                               const SlsGradientOptions& options,
                               SlsGradientOutput out);

/// Evaluates the view objective L itself (for monitoring / tests of the
/// descent property). Uses the same options as the gradient functions
/// (scale is ignored; it only rescales gradients).
double SlsObjective(const linalg::Matrix& v, const linalg::Matrix& h,
                    const SupervisionBatch& batch, const linalg::Matrix& w,
                    const std::vector<double>& b,
                    const SlsGradientOptions& options);

}  // namespace mcirbm::core

#endif  // MCIRBM_CORE_SLS_GRADIENT_H_
