// Tests for the extended integration members (agglomerative, DBSCAN, GMM,
// spectral) in the supervision-construction stage.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "metrics/external.h"

namespace mcirbm::core {
namespace {

data::Dataset SeparatedMixture(std::uint64_t seed) {
  data::GaussianMixtureSpec spec;
  spec.name = "extended-voters";
  spec.num_classes = 3;
  spec.num_instances = 150;
  spec.num_features = 12;
  spec.separation = 4.0;
  spec.informative_fraction = 0.6;
  data::Dataset ds = data::GenerateGaussianMixture(spec, seed);
  data::StandardizeInPlace(&ds.x);
  return ds;
}

TEST(ExtendedVotersTest, EachExtendedVoterAloneProducesValidSupervision) {
  const data::Dataset ds = SeparatedMixture(11);
  for (const char* voter : {"agglomerative", "dbscan", "gmm", "spectral"}) {
    SupervisionConfig cfg;
    cfg.num_clusters = 3;
    cfg.voters = {{voter, {}, 1}};
    const auto sup = TryComputeSelfLearningSupervision(ds.x, cfg, 7).value();
    sup.CheckValid();
    EXPECT_GT(sup.NumCredible(), 0u) << "voter " << voter;
  }
}

TEST(ExtendedVotersTest, FullEnsembleSupervisionIsPurerThanAnySingle) {
  const data::Dataset ds = SeparatedMixture(13);

  auto purity_of = [&](const SupervisionConfig& cfg) {
    const auto sup = TryComputeSelfLearningSupervision(ds.x, cfg, 3).value();
    // Purity of credible instances against ground truth.
    std::vector<int> truth, pred;
    for (std::size_t i = 0; i < sup.cluster_of.size(); ++i) {
      if (sup.cluster_of[i] < 0) continue;
      truth.push_back(ds.labels[i]);
      pred.push_back(sup.cluster_of[i]);
    }
    if (pred.empty()) return 0.0;
    return metrics::Purity(truth, pred);
  };

  SupervisionConfig full;
  full.num_clusters = 3;
  full.voters = ParseVoterList("dp,kmeans,ap,agglomerative,gmm").value();
  const double ensemble_purity = purity_of(full);

  SupervisionConfig kmeans_only;
  kmeans_only.num_clusters = 3;
  kmeans_only.voters = {{"kmeans", {}, 1}};
  const double single_purity = purity_of(kmeans_only);

  // The stricter 5-member unanimous vote should never be less pure than a
  // single K-means "vote" on this well-separated mixture.
  EXPECT_GE(ensemble_purity + 1e-9, single_purity);
}

TEST(ExtendedVotersTest, DbscanNoiseAbstainsRatherThanPoisons) {
  const data::Dataset ds = SeparatedMixture(17);
  SupervisionConfig with_dbscan;
  with_dbscan.num_clusters = 3;
  with_dbscan.voters = {{"kmeans", {}, 1}, {"dbscan", {}, 1}};
  const auto sup =
      TryComputeSelfLearningSupervision(ds.x, with_dbscan, 5).value();
  sup.CheckValid();
  // DBSCAN abstentions lower coverage but never create invalid ids.
  EXPECT_LE(sup.Coverage(), 1.0);
  for (int id : sup.cluster_of) {
    EXPECT_GE(id, -1);
    EXPECT_LT(id, sup.num_clusters);
  }
}

TEST(ExtendedVotersTest, MoreMembersNeverRaiseCoverage) {
  const data::Dataset ds = SeparatedMixture(19);
  SupervisionConfig base;
  base.num_clusters = 3;
  const double cov_base =
      TryComputeSelfLearningSupervision(ds.x, base, 23).value().Coverage();

  SupervisionConfig extended = base;
  extended.voters =
      ParseVoterList("dp,kmeans,ap,agglomerative,gmm,spectral").value();
  const double cov_ext =
      TryComputeSelfLearningSupervision(ds.x, extended, 23).value().Coverage();

  EXPECT_LE(cov_ext, cov_base + 1e-12)
      << "unanimity over a superset of voters cannot cover more";
}

TEST(ExtendedVotersTest, DeterministicGivenSeed) {
  const data::Dataset ds = SeparatedMixture(29);
  SupervisionConfig cfg;
  cfg.num_clusters = 3;
  cfg.voters = ParseVoterList("dp,kmeans,ap,agglomerative,dbscan,gmm").value();
  const auto a = TryComputeSelfLearningSupervision(ds.x, cfg, 31).value();
  const auto b = TryComputeSelfLearningSupervision(ds.x, cfg, 31).value();
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
}

}  // namespace
}  // namespace mcirbm::core
