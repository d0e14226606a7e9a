// Feature transforms applied before feeding data to RBM variants.
//
// slsGRBM consumes standardized real-valued features (Gaussian visible
// units with unit variance); slsRBM consumes values in [0,1] interpreted
// as Bernoulli probabilities (the standard RBM treatment of gray-scale /
// normalized features) or hard-binarized bits.
#ifndef MCIRBM_DATA_TRANSFORMS_H_
#define MCIRBM_DATA_TRANSFORMS_H_

#include <string>

#include "linalg/matrix.h"
#include "util/status.h"

namespace mcirbm::data {

/// z-scores every column in place: (x - mean) / stddev. Constant columns
/// (stddev < eps) are centered only.
void StandardizeInPlace(linalg::Matrix* x, double eps = 1e-12);

/// Rescales every column to [0, 1] in place. Constant columns map to 0.5.
void MinMaxScaleInPlace(linalg::Matrix* x, double eps = 1e-12);

/// Hard binarization: x >= threshold -> 1 else 0, element-wise in place.
void BinarizeInPlace(linalg::Matrix* x, double threshold);

/// Binarizes each column at its own mean (adaptive thresholding commonly
/// used when feeding UCI data to binary RBMs).
void BinarizeAtColumnMeanInPlace(linalg::Matrix* x);

/// L2-normalizes every row in place (zero rows are left unchanged).
void L2NormalizeRowsInPlace(linalg::Matrix* x, double eps = 1e-12);

/// Applies the preprocessing named `name` in place: "none" leaves `x` as
/// it is, "standardize" z-scores, "minmax" scales to [0, 1], and
/// "binarize" scales to [0, 1] and then binarizes at each column's mean.
/// InvalidArgument for any other name.
Status ApplyTransform(const std::string& name, linalg::Matrix* x);

}  // namespace mcirbm::data

#endif  // MCIRBM_DATA_TRANSFORMS_H_
