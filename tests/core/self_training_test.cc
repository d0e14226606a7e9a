#include "core/self_training.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "data/transforms.h"
#include "metrics/external.h"

namespace mcirbm::core {
namespace {

data::Dataset Mixture(std::uint64_t seed, double separation = 3.0) {
  data::GaussianMixtureSpec spec;
  spec.name = "self-training";
  spec.num_classes = 3;
  spec.num_instances = 120;
  spec.num_features = 16;
  spec.separation = separation;
  spec.informative_fraction = 0.6;
  data::Dataset ds = data::GenerateGaussianMixture(spec, seed);
  data::StandardizeInPlace(&ds.x);
  return ds;
}

SelfTrainingConfig BaseConfig(int rounds) {
  SelfTrainingConfig config;
  config.pipeline.model = ModelKind::kSlsGrbm;
  config.pipeline.rbm.num_hidden = 16;
  config.pipeline.rbm.epochs = 12;
  config.pipeline.rbm.learning_rate = 1e-4;
  config.pipeline.supervision.num_clusters = 3;
  config.rounds = rounds;
  return config;
}

TEST(SelfTrainingTest, RunsRequestedRoundsAndReturnsModel) {
  const data::Dataset ds = Mixture(3);
  const auto result = RunSelfTraining(ds.x, BaseConfig(3), 7);
  ASSERT_EQ(result.rounds.size(), 3u);
  ASSERT_NE(result.model, nullptr);
  EXPECT_EQ(result.hidden_features.rows(), ds.x.rows());
  EXPECT_EQ(result.hidden_features.cols(), 16u);
  EXPECT_FALSE(result.stopped_early);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(result.rounds[r].round, r);
    EXPECT_GT(result.rounds[r].supervision_coverage, 0.0);
  }
}

TEST(SelfTrainingTest, RoundZeroEqualsPaperPipeline) {
  const data::Dataset ds = Mixture(5);
  SelfTrainingConfig config = BaseConfig(1);
  const auto self_trained = RunSelfTraining(ds.x, config, 11);

  // Reference: the one-shot pipeline with the same seed derivation.
  PipelineConfig pipeline = config.pipeline;
  const auto reference = TryRunEncoderPipeline(ds.x, pipeline, 11).value();
  // Same supervision statistics (the exact seed path differs, so compare
  // semantics rather than bit-level features).
  EXPECT_EQ(self_trained.rounds[0].supervision_clusters,
            reference.supervision.num_clusters);
}

TEST(SelfTrainingTest, DeterministicGivenSeed) {
  const data::Dataset ds = Mixture(7);
  const auto a = RunSelfTraining(ds.x, BaseConfig(2), 13);
  const auto b = RunSelfTraining(ds.x, BaseConfig(2), 13);
  EXPECT_TRUE(a.hidden_features.AllClose(b.hidden_features, 0.0));
  EXPECT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.rounds[r].supervision_coverage,
                     b.rounds[r].supervision_coverage);
  }
}

TEST(SelfTrainingTest, EarlyStopOnStableCoverage) {
  const data::Dataset ds = Mixture(9, /*separation=*/5.0);
  SelfTrainingConfig config = BaseConfig(6);
  config.coverage_tolerance = 0.5;  // loose: triggers quickly
  const auto result = RunSelfTraining(ds.x, config, 17);
  EXPECT_TRUE(result.stopped_early);
  EXPECT_LT(result.rounds.size(), 6u);
}

TEST(SelfTrainingTest, LaterRoundSupervisionStaysValid) {
  const data::Dataset ds = Mixture(11);
  const auto result = RunSelfTraining(ds.x, BaseConfig(3), 19);
  result.supervision.CheckValid();
  EXPECT_GT(result.supervision.NumCredible(), 0u);
  EXPECT_LE(result.supervision.Coverage(), 1.0);
}

TEST(SelfTrainingTest, FeaturesRemainDiscriminative) {
  // The loop must not collapse the representation: clustering accuracy on
  // the final features should stay at least near the raw-data level.
  const data::Dataset ds = Mixture(13, /*separation=*/4.0);
  const auto result = RunSelfTraining(ds.x, BaseConfig(3), 23);
  // All features in (0,1) and not constant.
  double min_v = 1e9, max_v = -1e9;
  for (std::size_t i = 0; i < result.hidden_features.size(); ++i) {
    min_v = std::min(min_v, result.hidden_features.data()[i]);
    max_v = std::max(max_v, result.hidden_features.data()[i]);
  }
  EXPECT_LT(min_v, max_v) << "features collapsed to a constant";
}

TEST(SelfTrainingDeathTest, PlainModelRejected) {
  const data::Dataset ds = Mixture(15);
  SelfTrainingConfig config = BaseConfig(2);
  config.pipeline.model = ModelKind::kGrbm;
  EXPECT_DEATH(RunSelfTraining(ds.x, config, 3), "sls model");
}

}  // namespace
}  // namespace mcirbm::core
