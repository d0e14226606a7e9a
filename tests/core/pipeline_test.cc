#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "clustering/kmeans.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "metrics/external.h"

namespace mcirbm::core {
namespace {

data::Dataset MakeData(int n, int d, int k, double separation,
                       std::uint64_t seed) {
  data::GaussianMixtureSpec spec;
  spec.name = "pipe";
  spec.num_classes = k;
  spec.num_instances = n;
  spec.num_features = d;
  spec.separation = separation;
  return data::GenerateGaussianMixture(spec, seed);
}

PipelineConfig SmallConfig(ModelKind model) {
  PipelineConfig cfg;
  cfg.model = model;
  cfg.rbm.num_hidden = 8;
  cfg.rbm.epochs = 15;
  cfg.rbm.learning_rate = 1e-3;
  cfg.supervision.num_clusters = 2;
  return cfg;
}

TEST(SupervisionPipelineTest, EasyDataGetsHighCoverageSupervision) {
  data::Dataset d = MakeData(90, 6, 2, 8.0, 1);
  data::StandardizeInPlace(&d.x);
  SupervisionConfig cfg;
  cfg.num_clusters = 2;
  const voting::LocalSupervision sup =
      TryComputeSelfLearningSupervision(d.x, cfg, 1).value();
  EXPECT_EQ(sup.num_clusters, 2);
  EXPECT_GT(sup.Coverage(), 0.8);
  // Credible clusters should align with the true classes almost perfectly.
  std::vector<int> truth, pred;
  for (std::size_t i = 0; i < sup.cluster_of.size(); ++i) {
    if (sup.cluster_of[i] >= 0) {
      truth.push_back(d.labels[i]);
      pred.push_back(sup.cluster_of[i]);
    }
  }
  EXPECT_GT(metrics::ClusteringAccuracy(truth, pred), 0.95);
}

TEST(SupervisionPipelineTest, HardDataGetsLowerCoverage) {
  data::Dataset easy = MakeData(80, 6, 2, 8.0, 2);
  data::Dataset hard = MakeData(80, 6, 2, 0.7, 2);
  data::StandardizeInPlace(&easy.x);
  data::StandardizeInPlace(&hard.x);
  SupervisionConfig cfg;
  cfg.num_clusters = 2;
  const double cov_easy =
      TryComputeSelfLearningSupervision(easy.x, cfg, 1).value().Coverage();
  const double cov_hard =
      TryComputeSelfLearningSupervision(hard.x, cfg, 1).value().Coverage();
  EXPECT_LT(cov_hard, cov_easy);
}

TEST(SupervisionPipelineTest, SubsetOfClusterersWorks) {
  data::Dataset d = MakeData(60, 5, 2, 6.0, 3);
  data::StandardizeInPlace(&d.x);
  SupervisionConfig cfg;
  cfg.num_clusters = 2;
  cfg.voters = {{"dp", {}, 1}, {"kmeans", {}, 1}};
  const voting::LocalSupervision sup =
      TryComputeSelfLearningSupervision(d.x, cfg, 1).value();
  EXPECT_GT(sup.Coverage(), 0.5);
}

TEST(SupervisionPipelineTest, NoClusterersIsInvalidArgument) {
  linalg::Matrix x(10, 3);
  SupervisionConfig cfg;
  cfg.voters.clear();
  const auto sup = TryComputeSelfLearningSupervision(x, cfg, 1);
  EXPECT_EQ(sup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sup.status().message().find("at least one base clusterer"),
            std::string::npos)
      << sup.status().ToString();
}

TEST(SupervisionPipelineTest, VoterKAboveRowCountIsInvalidArgument) {
  // Both the shared num_clusters and a spec's own k are checked against
  // the row count before any voter runs, instead of aborting in the
  // clusterer.
  const linalg::Matrix x(10, 3);
  SupervisionConfig shared_k;
  shared_k.num_clusters = 50;
  const auto too_many = TryComputeSelfLearningSupervision(x, shared_k, 1);
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_many.status().message().find("'dp'"), std::string::npos)
      << too_many.status().ToString();

  SupervisionConfig spec_k;
  spec_k.num_clusters = 2;
  ParamMap params;
  params.Set("k", "50");
  spec_k.voters = {{"kmeans", params, 1}};
  const auto spec_too_many = TryComputeSelfLearningSupervision(x, spec_k, 1);
  EXPECT_EQ(spec_too_many.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec_too_many.status().message().find("'kmeans'"),
            std::string::npos)
      << spec_too_many.status().ToString();
}

TEST(PipelineTest, AllModelKindsProduceFeatures) {
  data::Dataset d = MakeData(50, 8, 2, 4.0, 4);
  linalg::Matrix real = d.x;
  data::StandardizeInPlace(&real);
  linalg::Matrix binary = d.x;
  data::MinMaxScaleInPlace(&binary);

  for (ModelKind kind : {ModelKind::kRbm, ModelKind::kGrbm,
                         ModelKind::kSlsRbm, ModelKind::kSlsGrbm}) {
    const bool is_binary_model =
        kind == ModelKind::kRbm || kind == ModelKind::kSlsRbm;
    const linalg::Matrix& x = is_binary_model ? binary : real;
    const PipelineResult result =
        TryRunEncoderPipeline(x, SmallConfig(kind), 5).value();
    EXPECT_EQ(result.hidden_features.rows(), 50u)
        << "kind " << static_cast<int>(kind);
    EXPECT_EQ(result.hidden_features.cols(), 8u);
    EXPECT_NE(result.model, nullptr);
  }
}

TEST(PipelineTest, PlainModelsSkipSupervision) {
  data::Dataset d = MakeData(40, 6, 2, 4.0, 6);
  data::StandardizeInPlace(&d.x);
  const PipelineResult result =
      TryRunEncoderPipeline(d.x, SmallConfig(ModelKind::kGrbm), 7).value();
  EXPECT_EQ(result.supervision.num_clusters, 0);
  EXPECT_TRUE(result.supervision.cluster_of.empty());
}

TEST(PipelineTest, DeterministicGivenSeed) {
  data::Dataset d = MakeData(40, 6, 2, 5.0, 7);
  data::StandardizeInPlace(&d.x);
  const PipelineConfig cfg = SmallConfig(ModelKind::kSlsGrbm);
  const PipelineResult a = TryRunEncoderPipeline(d.x, cfg, 11).value();
  const PipelineResult b = TryRunEncoderPipeline(d.x, cfg, 11).value();
  EXPECT_TRUE(a.hidden_features.AllClose(b.hidden_features, 0));
}

TEST(PipelineTest, SlsFeaturesImproveKmeansOnModerateData) {
  // Moderate separation: raw k-means is imperfect, sls features should be
  // at least as good (the paper's headline effect, miniaturized).
  data::Dataset d = MakeData(120, 10, 2, 2.8, 8);
  data::StandardizeInPlace(&d.x);

  PipelineConfig cfg = SmallConfig(ModelKind::kSlsGrbm);
  cfg.rbm.epochs = 30;
  cfg.sls.supervision_scale = 500.0;
  const PipelineResult sls = TryRunEncoderPipeline(d.x, cfg, 9).value();

  clustering::KMeansConfig km;
  km.k = 2;
  const auto raw_result = clustering::KMeans(km).Cluster(d.x, 1);
  const auto sls_result =
      clustering::KMeans(km).Cluster(sls.hidden_features, 1);
  const double acc_raw =
      metrics::ClusteringAccuracy(d.labels, raw_result.assignment);
  const double acc_sls =
      metrics::ClusteringAccuracy(d.labels, sls_result.assignment);
  EXPECT_GE(acc_sls, acc_raw - 0.02);
}

// Divergent training is an error of the run, not a model full of NaN.
TEST(PipelineTest, DivergentTrainingReturnsInvalidArgument) {
  data::Dataset d = MakeData(60, 8, 2, 4.0, 3);
  data::StandardizeInPlace(&d.x);
  PipelineConfig cfg = SmallConfig(ModelKind::kGrbm);
  cfg.rbm.learning_rate = 1e6;
  cfg.rbm.epochs = 60;
  const auto result = TryRunEncoderPipeline(d.x, cfg, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("epoch"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("rbm.learning_rate"),
            std::string::npos);
}

}  // namespace
}  // namespace mcirbm::core
