#include "data/transforms.h"

#include <cmath>

#include "linalg/stats.h"

namespace mcirbm::data {

void StandardizeInPlace(linalg::Matrix* x, double eps) {
  if (x->rows() == 0) return;
  const linalg::ColumnStats stats = linalg::ComputeColumnStats(*x);
  const std::size_t n = x->rows(), d = x->cols();
  for (std::size_t i = 0; i < n; ++i) {
    double* row = x->data() + i * d;
    for (std::size_t j = 0; j < d; ++j) {
      row[j] -= stats.mean[j];
      if (stats.stddev[j] > eps) row[j] /= stats.stddev[j];
    }
  }
}

void MinMaxScaleInPlace(linalg::Matrix* x, double eps) {
  if (x->rows() == 0) return;
  const linalg::ColumnRange range = linalg::ComputeColumnRange(*x);
  const std::size_t n = x->rows(), d = x->cols();
  for (std::size_t i = 0; i < n; ++i) {
    double* row = x->data() + i * d;
    for (std::size_t j = 0; j < d; ++j) {
      const double span = range.max[j] - range.min[j];
      row[j] = span > eps ? (row[j] - range.min[j]) / span : 0.5;
    }
  }
}

void BinarizeInPlace(linalg::Matrix* x, double threshold) {
  double* p = x->data();
  for (std::size_t i = 0; i < x->size(); ++i) {
    p[i] = p[i] >= threshold ? 1.0 : 0.0;
  }
}

void BinarizeAtColumnMeanInPlace(linalg::Matrix* x) {
  if (x->rows() == 0) return;
  const linalg::ColumnStats stats = linalg::ComputeColumnStats(*x);
  const std::size_t n = x->rows(), d = x->cols();
  for (std::size_t i = 0; i < n; ++i) {
    double* row = x->data() + i * d;
    for (std::size_t j = 0; j < d; ++j) {
      row[j] = row[j] >= stats.mean[j] ? 1.0 : 0.0;
    }
  }
}

void L2NormalizeRowsInPlace(linalg::Matrix* x, double eps) {
  const std::size_t n = x->rows(), d = x->cols();
  for (std::size_t i = 0; i < n; ++i) {
    double* row = x->data() + i * d;
    double norm = 0;
    for (std::size_t j = 0; j < d; ++j) norm += row[j] * row[j];
    norm = std::sqrt(norm);
    if (norm > eps) {
      for (std::size_t j = 0; j < d; ++j) row[j] /= norm;
    }
  }
}

Status ApplyTransform(const std::string& name, linalg::Matrix* x) {
  if (name == "standardize") {
    StandardizeInPlace(x);
  } else if (name == "minmax") {
    MinMaxScaleInPlace(x);
  } else if (name == "binarize") {
    MinMaxScaleInPlace(x);
    BinarizeAtColumnMeanInPlace(x);
  } else if (name != "none") {
    return Status::InvalidArgument("unknown transform '" + name + "'");
  }
  return Status::Ok();
}

}  // namespace mcirbm::data
