#include "rbm/grbm.h"

#include "linalg/ops.h"

namespace mcirbm::rbm {

void Grbm::ReconstructVisible(const linalg::Matrix& h,
                              linalg::Matrix* v) const {
  // E[v|h] = a + h·Wᵀ  (Eq. 5 with unit variance, noise-free).
  linalg::GemmTransB(h, w_, v);
  linalg::AddRowVector(v, a_);
}

double Grbm::VisibleFreeEnergyTerm(std::span<const double> v) const {
  // ½ Σ_i (v_i − a_i)² from the Gaussian term of Eq. 4 (unit σ).
  double sum = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double d = v[i] - a_[i];
    sum += d * d;
  }
  return 0.5 * sum;
}

}  // namespace mcirbm::rbm
