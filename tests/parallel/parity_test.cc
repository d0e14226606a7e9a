// Bit-parity of the parallelized hot kernels across thread counts: every
// result below must be *identical* (not merely close) at 1, 2, 4 and 8
// threads, because shard boundaries and reduction trees are fixed by the
// problem size alone. A failure here means a kernel picked up a
// thread-count-dependent schedule.
#include <gtest/gtest.h>

#include <vector>

#include "clustering/affinity_propagation.h"
#include "clustering/agglomerative.h"
#include "clustering/density_peaks.h"
#include "clustering/gmm.h"
#include "clustering/kmeans.h"
#include "clustering/spectral.h"
#include "core/pipeline.h"
#include "core/sls_gradient.h"
#include "data/synthetic.h"
#include "linalg/ops.h"
#include "linalg/pca.h"
#include "parallel/thread_pool.h"
#include "rbm/grbm.h"
#include "rbm/rbm.h"
#include "rbm/sampling.h"
#include "rng/rng.h"

namespace mcirbm {
namespace {

class ParityTest : public ::testing::Test {
 protected:
  ~ParityTest() override {
    parallel::SetNumThreads(0);
    parallel::SetDeterministic(parallel::DefaultDeterministic());
  }
};

linalg::Matrix RandomMatrix(std::size_t r, std::size_t c,
                            std::uint64_t seed) {
  rng::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

template <typename Fn>
void ExpectSameMatrixAtAllWidths(const Fn& compute) {
  parallel::SetNumThreads(1);
  const linalg::Matrix reference = compute();
  for (int width : {2, 4, 8}) {
    parallel::SetNumThreads(width);
    const linalg::Matrix got = compute();
    ASSERT_EQ(got.rows(), reference.rows());
    ASSERT_EQ(got.cols(), reference.cols());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], reference.data()[i])
          << "element " << i << " differs at " << width << " threads";
    }
  }
}

void ExpectSameClusteringAtAllWidths(const clustering::Clusterer& clusterer,
                                     const linalg::Matrix& x) {
  parallel::SetNumThreads(1);
  const auto reference = clusterer.Cluster(x, 5);
  for (int width : {2, 4, 8}) {
    parallel::SetNumThreads(width);
    const auto got = clusterer.Cluster(x, 5);
    EXPECT_EQ(got.assignment, reference.assignment)
        << clusterer.name() << " labels differ at " << width << " threads";
    EXPECT_EQ(got.iterations, reference.iterations);
    EXPECT_EQ(got.converged, reference.converged);
    EXPECT_EQ(got.objective, reference.objective);
  }
}

TEST_F(ParityTest, GemmVariantsAreBitIdenticalAcrossWidths) {
  const linalg::Matrix a = RandomMatrix(311, 97, 1);
  const linalg::Matrix b = RandomMatrix(97, 53, 2);
  ExpectSameMatrixAtAllWidths([&] { return linalg::Gemm(a, b); });

  const linalg::Matrix at = RandomMatrix(311, 97, 3);
  const linalg::Matrix bt = RandomMatrix(311, 53, 4);
  ExpectSameMatrixAtAllWidths([&] { return linalg::GemmTransA(at, bt); });
  const linalg::Matrix c = RandomMatrix(53, 97, 5);
  ExpectSameMatrixAtAllWidths([&] { return linalg::GemmTransB(a, c); });
}

TEST_F(ParityTest, PairwiseDistancesAndReductionsAreBitIdentical) {
  const linalg::Matrix m = RandomMatrix(401, 37, 6);
  ExpectSameMatrixAtAllWidths(
      [&] { return linalg::PairwiseSquaredDistances(m); });

  parallel::SetNumThreads(1);
  const std::vector<double> col_ref = linalg::ColSums(m);
  const std::vector<double> row_ref = linalg::RowSums(m);
  for (int width : {2, 8}) {
    parallel::SetNumThreads(width);
    EXPECT_EQ(linalg::ColSums(m), col_ref);
    EXPECT_EQ(linalg::RowSums(m), row_ref);
  }

  // 401 rows fit ColSums' 37 columns in one slice. At VT's CD shape its
  // 899 columns split into many slices, and each column must still add
  // its rows in ascending order.
  const linalg::Matrix wide = RandomMatrix(879, 899, 7);
  std::vector<double> want(wide.cols(), 0.0);
  for (std::size_t i = 0; i < wide.rows(); ++i) {
    for (std::size_t j = 0; j < wide.cols(); ++j) want[j] += wide(i, j);
  }
  for (int width : {1, 2, 8}) {
    parallel::SetNumThreads(width);
    EXPECT_EQ(linalg::ColSums(wide), want) << width << " threads";
  }
}

TEST_F(ParityTest, KMeansLabelsIdenticalAcrossWidths) {
  data::GaussianMixtureSpec spec;
  spec.name = "parity";
  spec.num_classes = 4;
  spec.num_instances = 600;  // > assignment shard width, so shards matter
  spec.num_features = 12;
  spec.separation = 4.0;
  const data::Dataset ds = data::GenerateGaussianMixture(spec, 11);

  clustering::KMeansConfig cfg;
  cfg.k = 4;
  ExpectSameClusteringAtAllWidths(clustering::KMeans(cfg), ds.x);
}

TEST_F(ParityTest, FastKMeansModeIsThreadCountInvariant) {
  // deterministic=false trades the serial-reference restart stream for
  // ShardRng substreams; the result must still be identical at any
  // thread count (it depends only on seed and restart index).
  data::GaussianMixtureSpec spec;
  spec.name = "parity-fast";
  spec.num_classes = 3;
  spec.num_instances = 300;
  spec.num_features = 8;
  spec.separation = 4.0;
  const data::Dataset ds = data::GenerateGaussianMixture(spec, 13);

  clustering::KMeansConfig cfg;
  cfg.k = 3;
  parallel::SetDeterministic(false);
  ExpectSameClusteringAtAllWidths(clustering::KMeans(cfg), ds.x);
  parallel::SetDeterministic(true);
}

template <typename Model>
void ExpectCd1ParityAcrossWidths(const linalg::Matrix& x,
                                 rbm::RbmConfig config) {
  config.num_visible = static_cast<int>(x.cols());
  parallel::SetNumThreads(1);
  Model reference(config);
  reference.Train(x);
  for (int width : {2, 8}) {
    parallel::SetNumThreads(width);
    Model got(config);
    got.Train(x);
    ASSERT_EQ(got.weights().size(), reference.weights().size());
    for (std::size_t i = 0; i < got.weights().size(); ++i) {
      ASSERT_EQ(got.weights().data()[i], reference.weights().data()[i])
          << "weight " << i << " differs at " << width << " threads";
    }
    EXPECT_EQ(got.visible_bias(), reference.visible_bias());
    EXPECT_EQ(got.hidden_bias(), reference.hidden_bias());
  }
}

data::Dataset ParityDataset(int classes, int n, int d, std::uint64_t seed) {
  data::GaussianMixtureSpec spec;
  spec.name = "parity-kernels";
  spec.num_classes = classes;
  spec.num_instances = n;
  spec.num_features = d;
  spec.separation = 4.0;
  return data::GenerateGaussianMixture(spec, seed);
}

TEST_F(ParityTest, SynthesisBitIdenticalAcrossWidths) {
  parallel::SetNumThreads(1);
  const data::Dataset reference = ParityDataset(3, 500, 16, 29);
  for (int width : {2, 4, 8}) {
    parallel::SetNumThreads(width);
    const data::Dataset got = ParityDataset(3, 500, 16, 29);
    EXPECT_EQ(got.labels, reference.labels);
    ASSERT_EQ(got.x.size(), reference.x.size());
    for (std::size_t i = 0; i < got.x.size(); ++i) {
      ASSERT_EQ(got.x.data()[i], reference.x.data()[i])
          << "element " << i << " differs at " << width << " threads";
    }
  }
}

TEST_F(ParityTest, GmmFitSoftBitIdenticalAcrossWidths) {
  const data::Dataset ds = ParityDataset(4, 600, 10, 31);
  const clustering::GaussianMixture gmm(
      {.num_components = 4, .max_iterations = 30});
  ExpectSameMatrixAtAllWidths(
      [&] { return gmm.FitSoft(ds.x, 7).responsibilities; });
  parallel::SetNumThreads(1);
  const auto reference = gmm.FitSoft(ds.x, 7);
  for (int width : {2, 4, 8}) {
    parallel::SetNumThreads(width);
    const auto got = gmm.FitSoft(ds.x, 7);
    EXPECT_EQ(got.hard.assignment, reference.hard.assignment);
    EXPECT_EQ(got.log_likelihood_trace, reference.log_likelihood_trace);
    EXPECT_EQ(got.weights, reference.weights);
  }
}

TEST_F(ParityTest, SpectralEmbeddingBitIdenticalAcrossWidths) {
  // 300 rows: the affinity/Laplacian shards split (grain 32) and the
  // Jacobi rotations cross their serial-inline threshold (grain 256).
  const data::Dataset ds = ParityDataset(3, 300, 8, 37);
  clustering::Spectral::Options options;
  options.num_clusters = 3;
  options.knn = 12;
  const clustering::Spectral spectral(options);
  ExpectSameMatrixAtAllWidths([&] { return spectral.Embed(ds.x); });
}

TEST_F(ParityTest, AgglomerativeLabelsIdenticalAcrossWidths) {
  const data::Dataset ds = ParityDataset(4, 300, 6, 41);
  for (const auto linkage :
       {clustering::Linkage::kWard, clustering::Linkage::kComplete}) {
    ExpectSameClusteringAtAllWidths(clustering::Agglomerative(4, linkage),
                                    ds.x);
  }
}

TEST_F(ParityTest, AffinityPropagationIdenticalAcrossWidths) {
  // 300 rows: the sweep's row shards (grain 32) and the column-sum shards
  // (grain 256) both split. Both preference modes: the median preference
  // and the bisection.
  const data::Dataset ds = ParityDataset(3, 300, 8, 59);
  for (const int target : {0, 3}) {
    clustering::AffinityPropagationConfig cfg;
    cfg.target_clusters = target;
    ExpectSameClusteringAtAllWidths(clustering::AffinityPropagation(cfg),
                                    ds.x);
  }
}

TEST_F(ParityTest, DensityPeaksIdenticalAcrossWidths) {
  // 300 rows: the density scans (grain 64) and the nearest-higher scan
  // (grain 16) split into several shards.
  const data::Dataset ds = ParityDataset(4, 300, 8, 61);
  clustering::DensityPeaksConfig cfg;
  cfg.k = 4;
  ExpectSameClusteringAtAllWidths(clustering::DensityPeaks(cfg), ds.x);
}

TEST_F(ParityTest, SupervisionIdenticalAcrossWidths) {
  // The composed supervision stage: dp, three k-means repeats and ap run
  // one after another on the whole pool, then the unanimous vote. In the
  // fast mode the k-means restarts take their ShardRng fan-out, which is
  // thread-count invariant as well. Overlapping classes, so the k-means
  // restarts disagree and every voter seed shows in the vote.
  data::GaussianMixtureSpec spec;
  spec.name = "parity-supervision";
  spec.num_classes = 3;
  spec.num_instances = 300;
  spec.num_features = 16;
  spec.separation = 2.0;
  spec.informative_fraction = 0.5;
  spec.confusion_fraction = 0.15;
  const data::Dataset ds = data::GenerateGaussianMixture(spec, 67);
  core::SupervisionConfig cfg;
  cfg.num_clusters = 3;
  cfg.voters = core::ParseVoterList("dp,kmeans*3,ap").value();
  for (const bool deterministic : {true, false}) {
    parallel::SetDeterministic(deterministic);
    parallel::SetNumThreads(1);
    const voting::LocalSupervision reference =
        core::TryComputeSelfLearningSupervision(ds.x, cfg, 5).value();
    EXPECT_GT(reference.num_clusters, 0);
    for (int width : {2, 4, 8}) {
      parallel::SetNumThreads(width);
      const voting::LocalSupervision got =
          core::TryComputeSelfLearningSupervision(ds.x, cfg, 5).value();
      EXPECT_EQ(got.cluster_of, reference.cluster_of)
          << "deterministic=" << deterministic << " at " << width
          << " threads";
      EXPECT_EQ(got.num_clusters, reference.num_clusters);
    }
  }
}

TEST_F(ParityTest, PcaFitAndTransformBitIdenticalAcrossWidths) {
  const linalg::Matrix x = RandomMatrix(400, 24, 43);
  const linalg::Matrix probe = RandomMatrix(50, 24, 44);
  linalg::Pca::Options options;
  options.num_components = 8;
  options.whiten = true;
  ExpectSameMatrixAtAllWidths([&] {
    const linalg::Pca pca = linalg::Pca::Fit(x, options);
    return pca.Transform(probe);
  });
}

TEST_F(ParityTest, SlsGradientBitIdenticalAcrossWidths) {
  const std::size_t m = 120, nv = 20, nh = 24;
  const linalg::Matrix v = RandomMatrix(m, nv, 47);
  linalg::Matrix h = RandomMatrix(m, nh, 48);
  linalg::SigmoidInPlace(&h);
  const linalg::Matrix w = RandomMatrix(nv, nh, 49);
  const std::vector<double> b(nh, 0.1);

  core::SupervisionBatch batch;
  batch.members = {{0, 3, 7, 11, 19}, {2, 5, 8}, {30, 31, 40, 41}};
  for (const auto& rows : batch.members) {
    batch.num_credible += rows.size();
    batch.num_ordered_pairs += rows.size() * (rows.size() - 1);
  }
  const core::SlsGradientOptions options;

  for (const bool fast : {false, true}) {
    ExpectSameMatrixAtAllWidths([&] {
      linalg::Matrix dw(nv, nh);
      std::vector<double> db(nh, 0.0);
      if (fast) {
        core::AccumulateSlsGradientFast(v, h, batch, w, b, options,
                                        {&dw, &db});
      } else {
        core::AccumulateSlsGradientNaive(v, h, batch, w, b, options,
                                         {&dw, &db});
      }
      return dw;
    });
  }
}

TEST_F(ParityTest, FantasySamplingDeterministicDefaultParity) {
  // Pins the deterministic mode (the shipped default): the single-stream
  // Gibbs chain is bit-identical at any thread count.
  parallel::SetDeterministic(true);
  linalg::Matrix x = RandomMatrix(96, 24, 51);
  linalg::SigmoidInPlace(&x);
  rbm::RbmConfig config;
  config.num_visible = 24;
  config.num_hidden = 16;
  config.epochs = 2;
  config.seed = 3;
  parallel::SetNumThreads(1);
  rbm::Rbm model(config);
  model.Train(x);
  rbm::GibbsOptions gibbs;
  gibbs.burn_in = 5;
  gibbs.seed = 13;
  ExpectSameMatrixAtAllWidths(
      [&] { return rbm::SampleFantasies(model, x, gibbs); });
}

TEST_F(ParityTest, FastGibbsSamplerSeedReproducible) {
  // deterministic=false trades the serial RNG stream for per-shard
  // substreams: the fantasies must still be a pure function of the seed,
  // identical at any thread count, and distinct for a different seed.
  linalg::Matrix x = RandomMatrix(96, 24, 53);
  linalg::SigmoidInPlace(&x);
  rbm::RbmConfig config;
  config.num_visible = 24;
  config.num_hidden = 16;
  config.epochs = 2;
  config.seed = 5;
  parallel::SetNumThreads(1);
  rbm::Rbm model(config);
  model.Train(x);
  rbm::GibbsOptions gibbs;
  gibbs.burn_in = 5;
  gibbs.seed = 17;

  parallel::SetDeterministic(false);
  parallel::SetNumThreads(1);
  const linalg::Matrix reference = rbm::SampleFantasies(model, x, gibbs);
  for (int width : {1, 2, 4, 8}) {
    parallel::SetNumThreads(width);
    const linalg::Matrix got = rbm::SampleFantasies(model, x, gibbs);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], reference.data()[i])
          << "fantasy element " << i << " differs at " << width
          << " threads";
    }
  }
  rbm::GibbsOptions other = gibbs;
  other.seed = 18;
  const linalg::Matrix different = rbm::SampleFantasies(model, x, other);
  bool any_differs = false;
  for (std::size_t i = 0; i < different.size() && !any_differs; ++i) {
    any_differs = different.data()[i] != reference.data()[i];
  }
  EXPECT_TRUE(any_differs) << "seed change did not perturb the fast chain";
  parallel::SetDeterministic(true);

  // The deterministic default is a *different* stream than the fast path
  // (single serial chain), so flipping the mode back changes the draw.
  const linalg::Matrix serial = rbm::SampleFantasies(model, x, gibbs);
  bool mode_differs = false;
  for (std::size_t i = 0; i < serial.size() && !mode_differs; ++i) {
    mode_differs = serial.data()[i] != reference.data()[i];
  }
  EXPECT_TRUE(mode_differs);
}

TEST_F(ParityTest, FastCd1TrainingSeedReproducible) {
  // Sharded hidden-state sampling in the training loop: fixed seed ->
  // fixed weights at any thread count.
  linalg::Matrix x = RandomMatrix(200, 32, 57);
  linalg::SigmoidInPlace(&x);
  rbm::RbmConfig config;
  config.num_visible = 32;
  config.num_hidden = 24;
  config.epochs = 3;
  config.batch_size = 64;
  config.seed = 11;

  parallel::SetDeterministic(false);
  parallel::SetNumThreads(1);
  rbm::Rbm reference(config);
  reference.Train(x);
  for (int width : {1, 2, 4, 8}) {
    parallel::SetNumThreads(width);
    rbm::Rbm got(config);
    got.Train(x);
    ASSERT_EQ(got.weights().size(), reference.weights().size());
    for (std::size_t i = 0; i < got.weights().size(); ++i) {
      ASSERT_EQ(got.weights().data()[i], reference.weights().data()[i])
          << "fast-mode weight " << i << " differs at " << width
          << " threads";
    }
    EXPECT_EQ(got.hidden_bias(), reference.hidden_bias());
  }
  parallel::SetDeterministic(true);
}

TEST_F(ParityTest, Cd1WeightUpdatesIdenticalAcrossWidths) {
  // Large enough that the GEMMs, reductions and the weight update all
  // split into several shards.
  linalg::Matrix x = RandomMatrix(320, 48, 21);
  linalg::Matrix binary = x;
  linalg::SigmoidInPlace(&binary);  // map into [0,1] for the binary RBM

  rbm::RbmConfig config;
  config.num_hidden = 40;
  config.epochs = 3;
  config.batch_size = 64;
  config.seed = 9;
  ExpectCd1ParityAcrossWidths<rbm::Rbm>(binary, config);
  ExpectCd1ParityAcrossWidths<rbm::Grbm>(x, config);
}

}  // namespace
}  // namespace mcirbm
