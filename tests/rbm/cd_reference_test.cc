// The CD-k trainer refills one set of batch buffers in place (the output
// forms of Gemm, GemmTransB, HiddenFeatures, ReconstructVisible and
// GatherRows). This pins it, byte for byte on W, a and b, to a reference
// CD-k loop written with the value-form kernels and fresh matrices at
// every step: for RBM and GRBM, k = 1 and 2, sampled and mean-field hidden
// states, full batch and 16-row batches with a shorter last one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "linalg/ops.h"
#include "parallel/thread_pool.h"
#include "rbm/grbm.h"
#include "rbm/rbm.h"
#include "rng/rng.h"

namespace mcirbm::rbm {
namespace {

struct Parameters {
  linalg::Matrix w;
  std::vector<double> a;
  std::vector<double> b;
};

// Bernoulli draws as the trainer makes them: from the serial training
// stream in deterministic mode, else one ShardRng substream per 64-row
// shard under a fresh stream id per draw.
class HiddenSampler {
 public:
  HiddenSampler(std::uint64_t seed, rng::Rng* serial)
      : base_(seed ^ 0x73686473747261ULL), serial_(serial) {}

  linalg::Matrix Sample(linalg::Matrix probs) {
    double* p = probs.data();
    if (parallel::Deterministic()) {
      for (std::size_t i = 0; i < probs.size(); ++i) {
        p[i] = serial_->Bernoulli(p[i]) ? 1.0 : 0.0;
      }
      return probs;
    }
    constexpr std::size_t kShardRows = 64;
    const std::uint64_t stream = base_ + 0x9e3779b97f4a7c15ULL * ++draws_;
    for (std::size_t begin = 0; begin < probs.rows(); begin += kShardRows) {
      rng::Rng rng = parallel::ShardRng(stream, begin / kShardRows);
      const std::size_t end = std::min(begin + kShardRows, probs.rows());
      const std::size_t cols = probs.cols();
      for (std::size_t i = begin * cols; i < end * cols; ++i) {
        p[i] = rng.Bernoulli(p[i]) ? 1.0 : 0.0;
      }
    }
    return probs;
  }

 private:
  const std::uint64_t base_;
  rng::Rng* serial_;
  std::uint64_t draws_ = 0;
};

// Plain CD-k (no PCD, sparsity or supervision), every product through the
// value-form kernels into a fresh matrix.
Parameters ReferenceCd(const RbmBase& init, bool gaussian,
                       const linalg::Matrix& x) {
  const RbmConfig& config = init.config();
  Parameters p{init.weights(), init.visible_bias(), init.hidden_bias()};
  const std::size_t n = x.rows(), nv = p.w.rows(), nh = p.w.cols();
  const std::size_t batch_size =
      config.batch_size > 0 ? static_cast<std::size_t>(config.batch_size)
                            : n;
  rng::Rng rng(config.seed ^ 0x5242747261696eULL);  // the training stream
  HiddenSampler sampler(config.seed, &rng);
  const auto hidden = [&p](const linalg::Matrix& v) {
    linalg::Matrix h = linalg::Gemm(v, p.w);
    linalg::AddRowVector(&h, p.b);
    linalg::SigmoidInPlace(&h);
    return h;
  };
  const auto visible = [&p, gaussian](const linalg::Matrix& h) {
    linalg::Matrix v = linalg::GemmTransB(h, p.w);
    linalg::AddRowVector(&v, p.a);
    if (!gaussian) linalg::SigmoidInPlace(&v);
    return v;
  };
  const auto states = [&](const linalg::Matrix& probs) {
    return config.sample_hidden_states ? sampler.Sample(probs) : probs;
  };

  linalg::Matrix w_vel(nv, nh);
  std::vector<double> a_vel(nv, 0.0), b_vel(nh, 0.0);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (std::size_t start = 0; start < n; start += batch_size) {
      const std::vector<std::size_t> idx(
          order.begin() + start,
          order.begin() + std::min(start + batch_size, n));
      const linalg::Matrix v = x.SelectRows(idx);
      const linalg::Matrix h_data = hidden(v);
      linalg::Matrix v_recon = visible(states(h_data));
      linalg::Matrix h_recon = hidden(v_recon);
      for (int k = 1; k < config.cd_k; ++k) {
        v_recon = visible(states(h_recon));
        h_recon = hidden(v_recon);
      }

      const double inv_m = 1.0 / static_cast<double>(v.rows());
      const double cd = 1.0;
      GradientBuffers grads(nv, nh);
      linalg::AccumulateGemmTransA(cd * inv_m, v, h_data, &grads.dw);
      linalg::AccumulateGemmTransA(-cd * inv_m, v_recon, h_recon,
                                   &grads.dw);
      const std::vector<double> v_sum = linalg::ColSums(v);
      const std::vector<double> vr_sum = linalg::ColSums(v_recon);
      for (std::size_t j = 0; j < nv; ++j) {
        grads.da[j] += cd * (inv_m * v_sum[j] - inv_m * vr_sum[j]);
      }
      const std::vector<double> h_sum = linalg::ColSums(h_data);
      const std::vector<double> hr_sum = linalg::ColSums(h_recon);
      for (std::size_t j = 0; j < nh; ++j) {
        grads.db[j] += cd * (inv_m * h_sum[j] - inv_m * hr_sum[j]);
      }

      const double lr = config.learning_rate;
      const double mom = (config.momentum_final > 0 &&
                          epoch >= config.momentum_switch_epoch)
                             ? config.momentum_final
                             : config.momentum;
      for (std::size_t i = 0; i < p.w.size(); ++i) {
        const double g =
            grads.dw.data()[i] - config.weight_decay * p.w.data()[i];
        w_vel.data()[i] = mom * w_vel.data()[i] + lr * g;
        p.w.data()[i] += w_vel.data()[i];
      }
      for (std::size_t j = 0; j < nv; ++j) {
        a_vel[j] = mom * a_vel[j] + lr * grads.da[j];
        p.a[j] += a_vel[j];
      }
      for (std::size_t j = 0; j < nh; ++j) {
        b_vel[j] = mom * b_vel[j] + lr * grads.db[j];
        p.b[j] += b_vel[j];
      }
    }
  }
  return p;
}

bool SameBytes(const double* x, const double* y, std::size_t n) {
  return std::memcmp(x, y, n * sizeof(double)) == 0;
}

// (gaussian, cd_k, sample_hidden_states, batch_size)
using CdCase = std::tuple<bool, int, bool, int>;

class CdReferenceTest : public ::testing::TestWithParam<CdCase> {};

TEST_P(CdReferenceTest, TrainFromSourceMatchesFreshMatrixLoop) {
  const auto [gaussian, cd_k, sampled, batch_size] = GetParam();
  constexpr int kRows = 50, kVisible = 12;
  RbmConfig config;
  config.num_visible = kVisible;
  config.num_hidden = 7;
  config.learning_rate = gaussian ? 0.01 : 0.05;
  config.epochs = 4;
  config.batch_size = batch_size;  // 16: batches of 16, 16, 16 and 2
  config.cd_k = cd_k;
  config.sample_hidden_states = sampled;
  config.momentum_final = 0.9;
  config.momentum_switch_epoch = 2;
  config.seed = 11;

  rng::Rng data_rng(29);
  linalg::Matrix x(kRows, kVisible);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = gaussian ? data_rng.Gaussian() : data_rng.Uniform();
  }

  std::unique_ptr<RbmBase> model, init;
  if (gaussian) {
    model = std::make_unique<Grbm>(config);
    init = std::make_unique<Grbm>(config);
  } else {
    model = std::make_unique<Rbm>(config);
    init = std::make_unique<Rbm>(config);
  }
  const auto history = model->TrainFromSource(MatrixTrainingSource(x));
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  const Parameters expected = ReferenceCd(*init, gaussian, x);

  EXPECT_TRUE(SameBytes(model->weights().data(), expected.w.data(),
                        expected.w.size()));
  EXPECT_TRUE(SameBytes(model->visible_bias().data(), expected.a.data(),
                        expected.a.size()));
  EXPECT_TRUE(SameBytes(model->hidden_bias().data(), expected.b.data(),
                        expected.b.size()));
}

std::string CdCaseName(const ::testing::TestParamInfo<CdCase>& info) {
  const auto [gaussian, cd_k, sampled, batch_size] = info.param;
  return std::string(gaussian ? "Grbm" : "Rbm") + "_Cd" +
         std::to_string(cd_k) + (sampled ? "_Sampled" : "_MeanField") +
         (batch_size > 0 ? "_Batch" + std::to_string(batch_size)
                         : std::string("_FullBatch"));
}

INSTANTIATE_TEST_SUITE_P(Cases, CdReferenceTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(1, 2),
                                            ::testing::Bool(),
                                            ::testing::Values(0, 16)),
                         CdCaseName);

}  // namespace
}  // namespace mcirbm::rbm
