#include "rbm/grbm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "data/transforms.h"

namespace mcirbm::rbm {
namespace {

linalg::Matrix RealData(int n, int d, std::uint64_t seed) {
  data::GaussianMixtureSpec spec;
  spec.name = "g";
  spec.num_classes = 2;
  spec.num_instances = n;
  spec.num_features = d;
  spec.separation = 4.0;
  linalg::Matrix x = data::GenerateGaussianMixture(spec, seed).x;
  data::StandardizeInPlace(&x);
  return x;
}

RbmConfig SmallConfig(int nv) {
  RbmConfig cfg;
  cfg.num_visible = nv;
  cfg.num_hidden = 6;
  cfg.learning_rate = 0.01;
  cfg.epochs = 40;
  cfg.seed = 5;
  return cfg;
}

TEST(GrbmTest, ReconstructionIsUnboundedRealValued) {
  Grbm model(SmallConfig(8));
  const linalg::Matrix x = RealData(25, 8, 1);
  const linalg::Matrix r = model.Reconstruct(x);
  EXPECT_EQ(r.rows(), x.rows());
  EXPECT_EQ(r.cols(), x.cols());
  // Linear reconstruction is not squashed into (0,1): with zero-init biases
  // and tiny weights it concentrates near Σh·w ≈ 0, but remains real-valued.
  // Just verify it is finite everywhere.
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_TRUE(std::isfinite(r.data()[i]));
  }
}

TEST(GrbmTest, TrainingReducesReconstructionError) {
  Grbm model(SmallConfig(8));
  const linalg::Matrix x = RealData(60, 8, 2);
  const double before = model.ReconstructionError(x);
  model.Train(x);
  const double after = model.ReconstructionError(x);
  EXPECT_LT(after, before);
}

TEST(GrbmTest, DeterministicTraining) {
  const linalg::Matrix x = RealData(30, 6, 3);
  Grbm a(SmallConfig(6)), b(SmallConfig(6));
  a.Train(x);
  b.Train(x);
  EXPECT_TRUE(a.weights().AllClose(b.weights(), 0));
}

TEST(GrbmTest, HiddenFeaturesAreSigmoidRange) {
  Grbm model(SmallConfig(6));
  const linalg::Matrix x = RealData(20, 6, 4);
  const linalg::Matrix h = model.HiddenFeatures(x);
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_GT(h.data()[i], 0.0);
    EXPECT_LT(h.data()[i], 1.0);
  }
}

TEST(GrbmTest, NameDistinguishesModels) {
  Grbm g(SmallConfig(4));
  EXPECT_EQ(g.name(), "grbm");
}

TEST(GrbmTest, TrainingIsStableOnStandardizedData) {
  RbmConfig cfg = SmallConfig(10);
  cfg.epochs = 80;
  Grbm model(cfg);
  const linalg::Matrix x = RealData(80, 10, 5);
  model.Train(x);
  EXPECT_TRUE(std::isfinite(model.weights().FrobeniusNorm()));
  EXPECT_LT(model.weights().MaxAbs(), 100.0);  // no blow-up
}

// Streams rows from a matrix without exposing it, so training takes the
// out-of-core path with its background prefetch thread.
class StreamedSource final : public TrainingDataSource {
 public:
  explicit StreamedSource(const linalg::Matrix& x) : inner_(x) {}
  std::size_t rows() const override { return inner_.rows(); }
  std::size_t cols() const override { return inner_.cols(); }
  Status GatherRows(const std::vector<std::size_t>& indices,
                    linalg::Matrix* out) const override {
    return inner_.GatherRows(indices, out);
  }

 private:
  MatrixTrainingSource inner_;
};

// A learning rate far too large drives the reconstruction to NaN. Training
// stops with kInvalidArgument naming the epoch instead of returning a model
// whose saved parameters cannot be read back.
TEST(GrbmTest, DivergentTrainingIsInvalidArgument) {
  RbmConfig cfg = SmallConfig(10);
  cfg.learning_rate = 1e6;
  cfg.epochs = 60;
  cfg.batch_size = 16;
  const linalg::Matrix x = RealData(80, 10, 5);
  const MatrixTrainingSource resident(x);
  const StreamedSource streamed(x);
  for (const TrainingDataSource* source :
       {static_cast<const TrainingDataSource*>(&resident),
        static_cast<const TrainingDataSource*>(&streamed)}) {
    Grbm model(cfg);
    const auto history = model.TrainFromSource(*source);
    ASSERT_FALSE(history.ok());
    EXPECT_EQ(history.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(history.status().message().find("epoch"), std::string::npos)
        << history.status().message();
    EXPECT_NE(history.status().message().find("rbm.learning_rate"),
              std::string::npos);
  }
}

// One epoch of one batch: the batch's reconstruction and gradient are
// finite, so only the update itself overflows (lr · ∂a ≈ 1e308 · 4). The
// parameters it leaves are checked too.
TEST(GrbmTest, OverflowInTheLastUpdateIsInvalidArgument) {
  RbmConfig cfg = SmallConfig(4);
  cfg.learning_rate = 1e308;
  cfg.epochs = 1;
  cfg.batch_size = 0;  // the whole matrix in one batch
  linalg::Matrix x(8, 4);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = 4.0 + 0.125 * static_cast<double>(i % 5);
  }
  Grbm model(cfg);
  const auto history = model.TrainFromSource(MatrixTrainingSource(x));
  ASSERT_FALSE(history.ok());
  EXPECT_EQ(history.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(history.status().message().find(
                "epoch 0, batch 0 (non-finite parameters after the update)"),
            std::string::npos)
      << history.status().message();
}

TEST(GrbmDeathTest, DivergentTrainAborts) {
  RbmConfig cfg = SmallConfig(10);
  cfg.learning_rate = 1e6;
  cfg.epochs = 60;
  Grbm model(cfg);
  const linalg::Matrix x = RealData(80, 10, 5);
  EXPECT_DEATH(model.Train(x), "grbm: training diverged at epoch");
}

}  // namespace
}  // namespace mcirbm::rbm
