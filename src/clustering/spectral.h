// Spectral clustering on the normalized graph Laplacian
// (Ng, Jordan & Weiss 2002).
//
// The graph-based integration member: clusters by connectivity rather
// than by compactness, so it votes differently from K-means/GMM on
// manifold-shaped data — the same motivation behind the GraphRBM line of
// related work the paper cites.
#ifndef MCIRBM_CLUSTERING_SPECTRAL_H_
#define MCIRBM_CLUSTERING_SPECTRAL_H_

#include <string>

#include "clustering/clusterer.h"

namespace mcirbm::clustering {

/// Normalized-cut spectral clustering: RBF (or kNN-connectivity) affinity,
/// symmetric normalized Laplacian, bottom-k eigenvectors (via the Jacobi
/// solver), row normalization, then k-means in the embedding. The dense
/// O(n³) Jacobi eigensolve limits it to datasets of a few hundred
/// instances.
class Spectral : public Clusterer {
 public:
  struct Options {
    int num_clusters = 2;
    /// RBF width; <= 0 self-tunes to the median pairwise distance.
    double sigma = 0.0;
    /// If > 0, sparsify the affinity to the symmetric kNN graph before
    /// building the Laplacian (keeps local structure, drops far links).
    int knn = 0;
    /// K-means restarts inside the embedding.
    int kmeans_restarts = 3;
  };

  explicit Spectral(const Options& options) : options_(options) {}

  std::string name() const override { return "Spectral"; }

  /// `seed` drives the embedded k-means.
  ClusteringResult Cluster(const linalg::Matrix& x,
                           std::uint64_t seed) const override;

  /// The spectral embedding (n x k row-normalized eigenvector matrix) —
  /// exposed for tests and diagnostics.
  linalg::Matrix Embed(const linalg::Matrix& x) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace mcirbm::clustering

#endif  // MCIRBM_CLUSTERING_SPECTRAL_H_
