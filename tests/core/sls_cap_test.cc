// Tests for the trust-region cap on the supervision gradient
// (SlsConfig::max_grad_norm). The cap is what lets one family-wide
// supervision_scale stay stable across datasets whose consensus coverage
// differs by an order of magnitude.
#include <cmath>
#include <gtest/gtest.h>

#include "core/sls_models.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "rbm/gradients.h"
#include "rng/rng.h"

namespace mcirbm::core {
namespace {

struct Fixture {
  linalg::Matrix x;
  voting::LocalSupervision supervision;
  linalg::Matrix w;
  std::vector<double> b;
  linalg::Matrix h, v_recon, h_recon;
  std::vector<std::size_t> indices;
};

// Builds a deterministic batch context over a small mixture with an
// oracle supervision, plus random-but-fixed parameters.
Fixture MakeFixture(int n = 60, int d = 8, int nh = 6) {
  data::GaussianMixtureSpec spec;
  spec.name = "cap";
  spec.num_classes = 3;
  spec.num_instances = n;
  spec.num_features = d;
  spec.separation = 3.0;
  data::Dataset ds = data::GenerateGaussianMixture(spec, 11);
  data::StandardizeInPlace(&ds.x);

  Fixture f;
  f.x = ds.x;
  f.supervision.num_clusters = 3;
  f.supervision.cluster_of = ds.labels;

  rng::Rng rng(17);
  f.w.Resize(d, nh);
  for (std::size_t i = 0; i < f.w.size(); ++i) {
    f.w.data()[i] = rng.Gaussian(0.0, 0.1);
  }
  f.b.assign(nh, 0.0);

  // Hidden probabilities and a crude "reconstruction" (shifted data) are
  // enough: the fuser only needs consistently shaped views.
  f.h = linalg::Matrix(f.x.rows(), nh);
  for (std::size_t r = 0; r < f.x.rows(); ++r) {
    for (int j = 0; j < nh; ++j) {
      double acc = f.b[j];
      for (int i = 0; i < d; ++i) acc += f.x(r, i) * f.w(i, j);
      f.h(r, j) = 1.0 / (1.0 + std::exp(-acc));
    }
  }
  f.v_recon = f.x;
  for (std::size_t i = 0; i < f.v_recon.size(); ++i) {
    f.v_recon.data()[i] *= 0.9;
  }
  f.h_recon = f.h;
  f.indices.resize(f.x.rows());
  for (std::size_t i = 0; i < f.x.rows(); ++i) f.indices[i] = i;
  return f;
}

double BufferNorm(const rbm::GradientBuffers& g) {
  double sq = 0;
  for (std::size_t i = 0; i < g.dw.size(); ++i) {
    sq += g.dw.data()[i] * g.dw.data()[i];
  }
  for (const double v : g.db) sq += v * v;
  return std::sqrt(sq);
}

rbm::GradientBuffers RunFuser(const Fixture& f, double scale, double cap) {
  SlsConfig cfg;
  cfg.eta = 0.5;
  cfg.supervision_scale = scale;
  cfg.max_grad_norm = cap;
  SlsSupervisionFuser fuser(cfg, f.supervision);
  rbm::GradientBuffers grads(f.w.rows(), f.w.cols());
  const rbm::BatchContext ctx{f.indices, f.x, f.h, f.v_recon, f.h_recon};
  fuser.Accumulate(ctx, f.w, f.b, &grads);
  return grads;
}

TEST(SlsCapTest, DisabledCapLeavesGradientUntouched) {
  const Fixture f = MakeFixture();
  const auto uncapped = RunFuser(f, 1e6, 0.0);
  const auto huge_cap = RunFuser(f, 1e6, 1e18);
  for (std::size_t i = 0; i < uncapped.dw.size(); ++i) {
    EXPECT_DOUBLE_EQ(uncapped.dw.data()[i], huge_cap.dw.data()[i]);
  }
}

TEST(SlsCapTest, CapBoundsTheContributionNorm) {
  const Fixture f = MakeFixture();
  for (const double cap : {1e-3, 1e-1, 1.0, 10.0}) {
    const auto grads = RunFuser(f, 1e6, cap);
    EXPECT_LE(BufferNorm(grads), cap * (1.0 + 1e-9)) << "cap=" << cap;
  }
}

TEST(SlsCapTest, CapPreservesGradientDirection) {
  const Fixture f = MakeFixture();
  const auto uncapped = RunFuser(f, 1e6, 0.0);
  const auto capped = RunFuser(f, 1e6, 1.0);
  const double ratio = BufferNorm(uncapped) / BufferNorm(capped);
  ASSERT_GT(ratio, 1.0);  // the cap actually engaged
  for (std::size_t i = 0; i < uncapped.dw.size(); ++i) {
    EXPECT_NEAR(uncapped.dw.data()[i], ratio * capped.dw.data()[i],
                1e-6 * std::abs(uncapped.dw.data()[i]) + 1e-12);
  }
}

TEST(SlsCapTest, LooseCapIsInactive) {
  const Fixture f = MakeFixture();
  const auto uncapped = RunFuser(f, 10.0, 0.0);
  const double norm = BufferNorm(uncapped);
  ASSERT_GT(norm, 0.0);
  const auto capped = RunFuser(f, 10.0, norm * 2.0);
  for (std::size_t i = 0; i < uncapped.dw.size(); ++i) {
    EXPECT_DOUBLE_EQ(uncapped.dw.data()[i], capped.dw.data()[i]);
  }
}

TEST(SlsCapTest, TrainingWithHugeScaleStaysFiniteUnderCap) {
  const Fixture f = MakeFixture(90, 10, 8);
  rbm::RbmConfig rc;
  rc.num_visible = 10;
  rc.num_hidden = 8;
  rc.learning_rate = 1e-2;
  rc.epochs = 30;
  rc.seed = 5;
  SlsConfig sls;
  sls.eta = 0.5;
  sls.supervision_scale = 1e8;  // would diverge uncapped at this lr
  sls.max_grad_norm = 50.0;
  SlsRbm model(rc, sls, f.supervision);
  linalg::Matrix x01 = f.x;
  data::MinMaxScaleInPlace(&x01);
  model.Train(x01);
  const linalg::Matrix h = model.HiddenFeatures(x01);
  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_TRUE(std::isfinite(h.data()[i]));
  }
}

}  // namespace
}  // namespace mcirbm::core
