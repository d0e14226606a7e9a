// Enumeration and uniform invocation of the three clustering algorithms
// used throughout the paper's evaluation.
#ifndef MCIRBM_EVAL_ALGORITHMS_H_
#define MCIRBM_EVAL_ALGORITHMS_H_

#include <cstdint>
#include <string>

#include "clustering/clusterer.h"

namespace mcirbm::eval {

/// The paper's three base clusterers, in its column order.
enum class ClustererKind { kDensityPeaks = 0, kKMeans = 1, kAffinityProp = 2 };

inline constexpr int kNumClusterers = 3;

/// Paper-style display name: "DP", "K-means", "AP".
const char* ClustererKindName(ClustererKind kind);

/// Runs clusterer `kind` on `x` asking for `k` clusters (AP searches its
/// preference to hit `k`).
clustering::ClusteringResult RunClusterer(ClustererKind kind,
                                          const linalg::Matrix& x, int k,
                                          std::uint64_t seed);

}  // namespace mcirbm::eval

#endif  // MCIRBM_EVAL_ALGORITHMS_H_
