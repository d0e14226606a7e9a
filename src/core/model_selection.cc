#include "core/model_selection.h"

#include "clustering/kmeans.h"
#include "metrics/internal.h"
#include "util/check.h"
#include "util/logging.h"

namespace mcirbm::core {

WidthSelection SelectHiddenWidth(const linalg::Matrix& x,
                                 const PipelineConfig& config,
                                 const std::vector<int>& widths, int k,
                                 std::uint64_t seed) {
  MCIRBM_CHECK(!widths.empty()) << "no candidate widths";
  MCIRBM_CHECK_GE(k, 2) << "internal scoring needs k >= 2";

  WidthSelection selection;
  double best_score = 0;
  for (const int width : widths) {
    MCIRBM_CHECK_GT(width, 0);
    PipelineConfig candidate_config = config;
    candidate_config.rbm.num_hidden = width;
    const PipelineResult result =
        TryRunEncoderPipeline(x, candidate_config, seed).value();

    clustering::KMeansConfig km;
    km.k = k;
    const auto clusters =
        clustering::KMeans(km).Cluster(result.hidden_features, seed);

    WidthCandidate candidate;
    candidate.num_hidden = width;
    candidate.silhouette = metrics::SilhouetteScore(result.hidden_features,
                                                    clusters.assignment);
    candidate.reconstruction_error = result.final_reconstruction_error;
    MCIRBM_LOG(kDebug) << "width " << width << ": silhouette "
                       << candidate.silhouette;

    if (selection.candidates.empty() || candidate.silhouette > best_score) {
      best_score = candidate.silhouette;
      selection.best_num_hidden = width;
    }
    selection.candidates.push_back(candidate);
  }
  return selection;
}

KSelection SelectNumClusters(const linalg::Matrix& x, int k_min, int k_max,
                             std::uint64_t seed) {
  MCIRBM_CHECK_GE(k_min, 2) << "silhouette is undefined below k = 2";
  MCIRBM_CHECK_LE(k_min, k_max);
  MCIRBM_CHECK_LT(static_cast<std::size_t>(k_max), x.rows())
      << "more clusters than instances";

  KSelection selection;
  double best_score = 0;
  for (int k = k_min; k <= k_max; ++k) {
    clustering::KMeansConfig km;
    km.k = k;
    const auto clusters = clustering::KMeans(km).Cluster(x, seed);
    KCandidate candidate;
    candidate.k = k;
    candidate.silhouette = metrics::SilhouetteScore(x, clusters.assignment);
    MCIRBM_LOG(kDebug) << "k " << k << ": silhouette "
                       << candidate.silhouette;
    if (selection.candidates.empty() || candidate.silhouette > best_score) {
      best_score = candidate.silhouette;
      selection.best_k = k;
    }
    selection.candidates.push_back(candidate);
  }
  return selection;
}

}  // namespace mcirbm::core
