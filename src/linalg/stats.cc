#include "linalg/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace mcirbm::linalg {

ColumnStats ComputeColumnStats(const Matrix& m) {
  MCIRBM_CHECK_GT(m.rows(), 0u);
  const std::size_t n = m.rows(), d = m.cols();
  ColumnStats stats;
  stats.mean.assign(d, 0.0);
  stats.stddev.assign(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = m.data() + i * d;
    for (std::size_t j = 0; j < d; ++j) stats.mean[j] += row[j];
  }
  for (double& v : stats.mean) v /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = m.data() + i * d;
    for (std::size_t j = 0; j < d; ++j) {
      const double dv = row[j] - stats.mean[j];
      stats.stddev[j] += dv * dv;
    }
  }
  for (double& v : stats.stddev) {
    v = std::sqrt(v / static_cast<double>(n));
  }
  return stats;
}

ColumnRange ComputeColumnRange(const Matrix& m) {
  MCIRBM_CHECK_GT(m.rows(), 0u);
  const std::size_t n = m.rows(), d = m.cols();
  ColumnRange range;
  range.min.assign(m.Row(0).begin(), m.Row(0).end());
  range.max = range.min;
  for (std::size_t i = 1; i < n; ++i) {
    const double* row = m.data() + i * d;
    for (std::size_t j = 0; j < d; ++j) {
      range.min[j] = std::min(range.min[j], row[j]);
      range.max[j] = std::max(range.max[j], row[j]);
    }
  }
  return range;
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() <= 1) return 0.0;
  const double m = Mean(xs);
  double s = 0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  return std::sqrt(Variance(xs));
}

double Percentile(std::vector<double> xs, double p) {
  MCIRBM_CHECK(!xs.empty());
  MCIRBM_CHECK(p >= 0 && p <= 100);
  if (xs.size() == 1) return xs[0];
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  // The lo-th and (lo+1)-th order statistics, by selection: after
  // nth_element everything past `nth` is >= it, so the next one up is
  // their minimum.
  const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), nth, xs.end());
  const double x_lo = *nth;
  const double x_hi = lo + 1 < xs.size() ? *std::min_element(nth + 1, xs.end())
                                         : x_lo;
  return x_lo * (1 - frac) + x_hi * frac;
}

}  // namespace mcirbm::linalg
