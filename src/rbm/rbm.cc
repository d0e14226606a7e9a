#include "rbm/rbm.h"

#include "linalg/ops.h"

namespace mcirbm::rbm {

void Rbm::ReconstructVisible(const linalg::Matrix& h,
                             linalg::Matrix* v) const {
  // p(v=1|h) = σ(a + h·Wᵀ)  (Eq. 3).
  linalg::GemmTransB(h, w_, v);
  linalg::AddRowVector(v, a_);
  linalg::SigmoidInPlace(v);
}

double Rbm::VisibleFreeEnergyTerm(std::span<const double> v) const {
  double dot = 0;
  for (std::size_t i = 0; i < v.size(); ++i) dot += a_[i] * v[i];
  return -dot;
}

}  // namespace mcirbm::rbm
