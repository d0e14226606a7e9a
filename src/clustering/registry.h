// String-keyed factory registry over every clusterer in this module.
//
// The registry is the extension seam for the multi-clustering integration:
// the supervision stage, the eval harness, and the CLI all resolve voters
// and evaluation clusterers by name here, so a new algorithm becomes
// available everywhere by registering one factory. Built-in names:
//
//   dp | kmeans | ap | agglomerative | dbscan | gmm | spectral
//
// Every factory accepts the shared "k" parameter (requested cluster count;
// density-based algorithms that find their own count ignore it) plus the
// algorithm-specific keys documented next to each factory in registry.cc.
// Unknown names and malformed parameters come back as non-OK Status — the
// registry never aborts on user input.
#ifndef MCIRBM_CLUSTERING_REGISTRY_H_
#define MCIRBM_CLUSTERING_REGISTRY_H_

#include <cstddef>
#include <memory>
#include <string>

#include "clustering/clusterer.h"
#include "util/param_map.h"
#include "util/registry.h"
#include "util/status.h"

namespace mcirbm::clustering {

/// Process-wide name -> factory table for Clusterer implementations.
/// Create resolves the clusterer registered under a name and instantiates
/// it with a ParamMap; NotFound for unknown names, factory-specific errors
/// (unknown or malformed parameters) pass through.
class ClustererRegistry
    : public NamedRegistry<StatusOr<std::unique_ptr<Clusterer>>(
          const ParamMap&)> {
 public:
  /// The singleton, pre-populated with the built-in clusterers.
  static ClustererRegistry& Global();

 private:
  ClustererRegistry();
};

/// The check every caller that runs a clusterer on user input makes first:
/// InvalidArgument "<what>: k = <k> exceeds the <rows> input rows" when the
/// requested cluster count `k` is above the row count (k-means and DP abort
/// on it; the others cannot reach it), OK otherwise. `what` names the
/// caller's clusterer, e.g. "voter 'kmeans'".
Status CheckClusterCount(const std::string& what, int k, std::size_t rows);

}  // namespace mcirbm::clustering

#endif  // MCIRBM_CLUSTERING_REGISTRY_H_
