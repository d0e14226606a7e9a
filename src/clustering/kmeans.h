// Lloyd's K-means with k-means++ initialization (Lloyd 1982; the paper's
// "K-means" baseline, ref [58]).
#ifndef MCIRBM_CLUSTERING_KMEANS_H_
#define MCIRBM_CLUSTERING_KMEANS_H_

#include "clustering/clusterer.h"

namespace mcirbm::clustering {

/// K-means configuration.
struct KMeansConfig {
  int k = 2;                 ///< number of clusters
  int max_iterations = 100;  ///< Lloyd iterations cap
  int restarts = 3;          ///< best-of-N restarts by SSE
  double tol = 1e-6;         ///< relative SSE improvement stop threshold
};

/// Lloyd's algorithm with k-means++ seeding and best-of-N restarts.
///
/// The k-means++ seeding and every assignment step take their distances
/// from linalg::SquaredDistances, the kernel set's 8-rows-per-vector
/// kernel, bit-identical to linalg::SquaredDistance. The argmin over
/// centroids in index order, the SSE reduction over fixed 256-row shards
/// and the empty-cluster re-seed keep their serial order, so assignment,
/// objective and iterations are identical at any thread count and kernel
/// set.
class KMeans : public Clusterer {
 public:
  explicit KMeans(const KMeansConfig& config);

  std::string name() const override { return "K-means"; }
  ClusteringResult Cluster(const linalg::Matrix& x,
                           std::uint64_t seed) const override;

  /// Final centroids of the last Cluster() call are not retained (the class
  /// is stateless); use ComputeCentroids on the result when needed.
  static linalg::Matrix ComputeCentroids(const linalg::Matrix& x,
                                         const std::vector<int>& assignment,
                                         int k);

 private:
  KMeansConfig config_;
};

}  // namespace mcirbm::clustering

#endif  // MCIRBM_CLUSTERING_KMEANS_H_
