// End-to-end integration of the extension features on one dataset:
// extended voter ensemble -> majority supervision -> stacked sls encoder
// -> save/load round trip -> iterated self-training, with the downstream
// clustering quality tracked at every stage.
#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "api/model.h"
#include "clustering/kmeans.h"
#include "core/pipeline.h"
#include "core/self_training.h"
#include "core/stacked.h"
#include "data/paper_datasets.h"
#include "data/transforms.h"
#include "metrics/external.h"
#include "metrics/internal.h"

namespace mcirbm {
namespace {

class ExtensionsEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    full_ = data::GenerateMsraLike(/*index=*/8, /*seed=*/7);
    dataset_ = data::StratifiedSubsample(full_, 150, 1);
    x_ = dataset_.x;
    data::StandardizeInPlace(&x_);
  }

  double KMeansAccuracy(const linalg::Matrix& features) const {
    clustering::KMeansConfig km;
    km.k = dataset_.num_classes;
    const auto result = clustering::KMeans(km).Cluster(features, 1);
    return metrics::ClusteringAccuracy(dataset_.labels, result.assignment);
  }

  data::Dataset full_;
  data::Dataset dataset_;
  linalg::Matrix x_;
};

TEST_F(ExtensionsEndToEndTest, MajorityEnsembleSupervisionFeedsSlsGrbm) {
  core::SupervisionConfig ensemble;
  ensemble.num_clusters = dataset_.num_classes;
  ensemble.voters =
      core::ParseVoterList("dp,kmeans,ap,agglomerative,gmm").value();
  ensemble.strategy = voting::VoteStrategy::kMajority;
  const auto supervision =
      core::TryComputeSelfLearningSupervision(x_, ensemble, 5).value();
  supervision.CheckValid();
  EXPECT_GT(supervision.Coverage(), 0.3);

  core::PipelineConfig config;
  config.model = core::ModelKind::kSlsGrbm;
  config.rbm.num_hidden = 32;
  config.rbm.epochs = 20;
  config.rbm.learning_rate = 1e-4;
  config.sls.supervision_scale = 2500;
  config.sls.disperse_weight = 2.0;
  config.supervision = ensemble;
  const auto result = core::TryRunEncoderPipeline(x_, config, 7).value();
  EXPECT_EQ(result.hidden_features.cols(), 32u);
  // The encoder must at least not destroy the structure the raw data has.
  EXPECT_GT(KMeansAccuracy(result.hidden_features),
            KMeansAccuracy(dataset_.x) - 0.1);
}

TEST_F(ExtensionsEndToEndTest, StackTrainSaveLoadTransformAgree) {
  core::StackedLayerConfig bottom;
  bottom.model = core::ModelKind::kSlsGrbm;
  bottom.rbm.num_hidden = 32;
  bottom.rbm.epochs = 15;
  bottom.rbm.learning_rate = 1e-4;
  bottom.sls.supervision_scale = 2500;
  bottom.supervision.num_clusters = dataset_.num_classes;

  core::StackedLayerConfig top = bottom;
  top.model = core::ModelKind::kSlsRbm;
  top.rbm.num_hidden = 16;
  top.rbm.learning_rate = 0.01;

  core::StackedEncoder stack({bottom, top});
  const auto stats = stack.Train(x_, 11);
  ASSERT_EQ(stats.size(), 2u);

  const linalg::Matrix expected = stack.Transform(x_);
  auto model = api::Model::FromStack(std::move(stack));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const std::string path = ::testing::TempDir() + "/e2e_stack.mcirbm";
  ASSERT_TRUE(model.value().Save(path).ok());
  auto loaded = api::Model::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().kind(), "sls-grbm,sls-rbm");
  EXPECT_TRUE(loaded.value().Transform(x_).value().AllClose(expected, 0));
}

TEST_F(ExtensionsEndToEndTest, SelfTrainingBeatsOrMatchesRawBaseline) {
  core::SelfTrainingConfig config;
  config.pipeline.model = core::ModelKind::kSlsGrbm;
  config.pipeline.rbm.num_hidden = 96;
  config.pipeline.rbm.epochs = 60;
  config.pipeline.rbm.learning_rate = 1e-4;
  config.pipeline.sls.eta = 0.4;
  config.pipeline.sls.supervision_scale = 2500;
  config.pipeline.sls.disperse_weight = 2.0;
  config.pipeline.supervision.num_clusters = dataset_.num_classes;
  config.pipeline.supervision.voters =
      core::ParseVoterList("dp,kmeans*3,ap").value();
  config.rounds = 2;
  const auto result = core::RunSelfTraining(x_, config, 7);
  ASSERT_EQ(result.rounds.size(), 2u);

  const double raw = KMeansAccuracy(dataset_.x);
  const double refined = KMeansAccuracy(result.hidden_features);
  EXPECT_GE(refined, raw - 0.05)
      << "self-training must not fall materially below the raw baseline";
}

TEST_F(ExtensionsEndToEndTest, WholeExtensionPathIsDeterministic) {
  auto run_once = [&]() {
    core::SupervisionConfig ensemble;
    ensemble.num_clusters = dataset_.num_classes;
    ensemble.voters =
        core::ParseVoterList("dp,kmeans,ap,agglomerative,dbscan").value();
    ensemble.strategy = voting::VoteStrategy::kMajority;
    core::PipelineConfig config;
    config.model = core::ModelKind::kSlsGrbm;
    config.rbm.num_hidden = 16;
    config.rbm.epochs = 10;
    config.rbm.learning_rate = 1e-4;
    config.supervision = ensemble;
    return core::TryRunEncoderPipeline(x_, config, 13).value().hidden_features;
  };
  EXPECT_TRUE(run_once().AllClose(run_once(), 0.0));
}

}  // namespace
}  // namespace mcirbm
