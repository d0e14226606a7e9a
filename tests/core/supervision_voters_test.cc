// Tests for `kmeans*N` in SupervisionConfig::voters — additional
// independently seeded K-means members in the multi-clustering
// integration. More voters make the unanimous vote stricter, trading
// coverage for precision.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "clustering/registry.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "metrics/external.h"
#include "parallel/thread_pool.h"
#include "voting/vote.h"

namespace mcirbm::core {
namespace {

data::Dataset NoisyMixture(std::uint64_t seed) {
  data::GaussianMixtureSpec spec;
  spec.name = "voters";
  spec.num_classes = 3;
  spec.num_instances = 240;
  spec.num_features = 16;
  spec.separation = 2.0;  // overlapping: K-means restarts disagree
  spec.informative_fraction = 0.5;
  spec.confusion_fraction = 0.15;
  data::Dataset ds = data::GenerateGaussianMixture(spec, seed);
  data::StandardizeInPlace(&ds.x);
  return ds;
}

// The paper's DP/K-means/AP trio with `kmeans` K-means members.
std::vector<VoterSpec> PaperVoters(int kmeans) {
  return {{"dp", {}, 1}, {"kmeans", {}, kmeans}, {"ap", {}, 1}};
}

TEST(SupervisionVotersTest, MoreVotersNeverRaiseCoverage) {
  const data::Dataset ds = NoisyMixture(3);
  double prev_coverage = 1.1;
  for (const int voters : {1, 3, 6}) {
    SupervisionConfig cfg;
    cfg.num_clusters = 3;
    cfg.voters = PaperVoters(voters);
    const auto sup = TryComputeSelfLearningSupervision(ds.x, cfg, 5).value();
    EXPECT_LE(sup.Coverage(), prev_coverage + 1e-12)
        << voters << " voters";
    prev_coverage = sup.Coverage();
  }
}

TEST(SupervisionVotersTest, StricterVoteDoesNotLowerPrecision) {
  // Consensus precision (accuracy of credible instances vs truth) with 5
  // voters should be at least that of 1 voter on overlapping data, since
  // only unstable instances are dropped. Allow a small tolerance: the
  // retained set changes, so exact monotonicity is not guaranteed.
  const data::Dataset ds = NoisyMixture(4);
  auto precision_with = [&](int voters) {
    SupervisionConfig cfg;
    cfg.num_clusters = 3;
    cfg.voters = PaperVoters(voters);
    const auto sup = TryComputeSelfLearningSupervision(ds.x, cfg, 5).value();
    std::vector<int> truth, pred;
    for (std::size_t i = 0; i < sup.cluster_of.size(); ++i) {
      if (sup.cluster_of[i] >= 0) {
        truth.push_back(ds.labels[i]);
        pred.push_back(sup.cluster_of[i]);
      }
    }
    return truth.empty() ? 0.0
                         : metrics::ClusteringAccuracy(truth, pred);
  };
  EXPECT_GE(precision_with(5), precision_with(1) - 0.05);
}

TEST(SupervisionVotersTest, DeterministicGivenSeed) {
  const data::Dataset ds = NoisyMixture(6);
  SupervisionConfig cfg;
  cfg.num_clusters = 3;
  cfg.voters = PaperVoters(3);
  const auto a = TryComputeSelfLearningSupervision(ds.x, cfg, 9).value();
  const auto b = TryComputeSelfLearningSupervision(ds.x, cfg, 9).value();
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
}

TEST(SupervisionVotersTest, MatchesStandaloneVoters) {
  // The integration runs each voter exactly as a standalone Cluster call
  // with seed + v·7919 would, in both determinism modes: with
  // deterministic=false the k-means restarts take the same ShardRng
  // fan-out inside the pipeline as they do alone.
  const data::Dataset ds = NoisyMixture(6);
  SupervisionConfig cfg;
  cfg.num_clusters = 3;
  cfg.voters = ParseVoterList("dp,kmeans*3,ap").value();
  ParamMap params;
  params.Set("k", std::to_string(cfg.num_clusters));
  const bool saved_mode = parallel::Deterministic();
  for (const bool deterministic : {true, false}) {
    parallel::SetDeterministic(deterministic);
    std::vector<std::vector<int>> partitions;
    for (const VoterSpec& spec : cfg.voters) {
      const auto clusterer = clustering::ClustererRegistry::Global()
                                 .Create(spec.clusterer, params)
                                 .value();
      for (int v = 0; v < spec.count; ++v) {
        partitions.push_back(
            clusterer->Cluster(ds.x, 9 + static_cast<std::uint64_t>(v) * 7919)
                .assignment);
      }
    }
    const voting::LocalSupervision expected = voting::IntegratePartitions(
        partitions, cfg.strategy, cfg.min_cluster_size);
    const voting::LocalSupervision got =
        TryComputeSelfLearningSupervision(ds.x, cfg, 9).value();
    EXPECT_EQ(got.cluster_of, expected.cluster_of)
        << "deterministic=" << deterministic;
    EXPECT_EQ(got.num_clusters, expected.num_clusters)
        << "deterministic=" << deterministic;
  }
  parallel::SetDeterministic(saved_mode);
}

TEST(SupervisionVotersTest, ZeroVotersIsInvalidArgument) {
  const data::Dataset ds = NoisyMixture(1);
  SupervisionConfig cfg;
  cfg.num_clusters = 3;
  cfg.voters = {{"kmeans", {}, 0}};
  const auto sup = TryComputeSelfLearningSupervision(ds.x, cfg, 1);
  EXPECT_EQ(sup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sup.status().message().find("count must be positive"),
            std::string::npos)
      << sup.status().ToString();
}

}  // namespace
}  // namespace mcirbm::core
