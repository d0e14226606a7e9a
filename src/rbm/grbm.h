// RBM with Gaussian linear visible units (Eq. 4-5): the canonical energy
// model for real-valued data, trained with CD per Karakida et al. [27].
#ifndef MCIRBM_RBM_GRBM_H_
#define MCIRBM_RBM_GRBM_H_

#include "rbm/rbm_base.h"

namespace mcirbm::rbm {

/// Gaussian (unit-variance, noise-free) visible + binary hidden units.
/// Reconstruction is the linear mean field a + h·Wᵀ — "the reconstructed
/// values of Gaussian linear visible units are equal to their top-down
/// input values from the binary hidden units plus their bias" (Sec III.B).
/// Inputs should be standardized (zero mean, unit variance per feature).
class Grbm : public RbmBase {
 public:
  explicit Grbm(const RbmConfig& config) : RbmBase(config) {}

  std::string name() const override { return "grbm"; }

 protected:
  void ReconstructVisible(const linalg::Matrix& h,
                          linalg::Matrix* v) const override;

  /// Gaussian (unit variance) visible part: ½ Σ_i (v_i − a_i)².
  double VisibleFreeEnergyTerm(std::span<const double> v) const override;
};

}  // namespace mcirbm::rbm

#endif  // MCIRBM_RBM_GRBM_H_
