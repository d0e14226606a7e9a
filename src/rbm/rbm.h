// Classical binary-binary RBM (Hinton & Sejnowski 1986), Eq. 1-3.
#ifndef MCIRBM_RBM_RBM_H_
#define MCIRBM_RBM_RBM_H_

#include "rbm/rbm_base.h"

namespace mcirbm::rbm {

/// Binary visible + binary hidden units; sigmoid visible reconstruction
/// (Eq. 3). Inputs should be in [0,1] (bits or Bernoulli probabilities).
class Rbm : public RbmBase {
 public:
  explicit Rbm(const RbmConfig& config) : RbmBase(config) {}

  std::string name() const override { return "rbm"; }

 protected:
  void ReconstructVisible(const linalg::Matrix& h,
                          linalg::Matrix* v) const override;

  /// Binary visible part: −a·v.
  double VisibleFreeEnergyTerm(std::span<const double> v) const override;
};

}  // namespace mcirbm::rbm

#endif  // MCIRBM_RBM_RBM_H_
