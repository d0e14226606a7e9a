#include "clustering/kmeans.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>

#include "data/synthetic.h"
#include "linalg/ops.h"
#include "metrics/external.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace mcirbm::clustering {
namespace {

data::Dataset WellSeparated(int classes, int n, int d, std::uint64_t seed) {
  data::GaussianMixtureSpec spec;
  spec.name = "blobs";
  spec.num_classes = classes;
  spec.num_instances = n;
  spec.num_features = d;
  spec.separation = 10.0;
  return data::GenerateGaussianMixture(spec, seed);
}

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  const auto d = WellSeparated(3, 150, 4, 1);
  KMeansConfig cfg;
  cfg.k = 3;
  const auto result = KMeans(cfg).Cluster(d.x, 1);
  EXPECT_EQ(result.num_clusters, 3);
  EXPECT_GT(metrics::ClusteringAccuracy(d.labels, result.assignment), 0.98);
}

TEST(KMeansTest, AssignmentCoversAllInstances) {
  const auto d = WellSeparated(2, 60, 3, 2);
  KMeansConfig cfg;
  cfg.k = 2;
  const auto result = KMeans(cfg).Cluster(d.x, 2);
  EXPECT_EQ(result.assignment.size(), 60u);
  for (int a : result.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 2);
  }
}

TEST(KMeansTest, DeterministicGivenSeed) {
  const auto d = WellSeparated(3, 90, 4, 3);
  KMeansConfig cfg;
  cfg.k = 3;
  const auto a = KMeans(cfg).Cluster(d.x, 7);
  const auto b = KMeans(cfg).Cluster(d.x, 7);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST(KMeansTest, MoreRestartsNeverWorseObjective) {
  const auto d = WellSeparated(4, 200, 6, 4);
  KMeansConfig one;
  one.k = 4;
  one.restarts = 1;
  KMeansConfig many = one;
  many.restarts = 8;
  const double sse1 = KMeans(one).Cluster(d.x, 5).objective;
  const double sse8 = KMeans(many).Cluster(d.x, 5).objective;
  EXPECT_LE(sse8, sse1 + 1e-9);
}

TEST(KMeansTest, KEqualsNAssignsSingletons) {
  linalg::Matrix x{{0, 0}, {10, 0}, {0, 10}};
  KMeansConfig cfg;
  cfg.k = 3;
  const auto result = KMeans(cfg).Cluster(x, 1);
  std::vector<int> sorted = result.assignment;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
  EXPECT_NEAR(result.objective, 0.0, 1e-12);
}

TEST(KMeansTest, SingleClusterTrivial) {
  const auto d = WellSeparated(2, 40, 3, 5);
  KMeansConfig cfg;
  cfg.k = 1;
  const auto result = KMeans(cfg).Cluster(d.x, 1);
  for (int a : result.assignment) EXPECT_EQ(a, 0);
}

TEST(KMeansTest, ConvergesOnEasyData) {
  const auto d = WellSeparated(3, 120, 4, 6);
  KMeansConfig cfg;
  cfg.k = 3;
  cfg.max_iterations = 100;
  const auto result = KMeans(cfg).Cluster(d.x, 1);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 100);
}

TEST(KMeansTest, ComputeCentroidsMatchesClusterMeans) {
  linalg::Matrix x{{0, 0}, {2, 0}, {10, 10}};
  const std::vector<int> assignment = {0, 0, 1};
  const auto centroids = KMeans::ComputeCentroids(x, assignment, 2);
  EXPECT_DOUBLE_EQ(centroids(0, 0), 1);
  EXPECT_DOUBLE_EQ(centroids(0, 1), 0);
  EXPECT_DOUBLE_EQ(centroids(1, 0), 10);
}

// --- The reference: the one-row-at-a-time scalar k-means ------------------
//
// KMeans computes its distances with the active kernel set's
// 8-rows-per-vector kernel. This is the loop it replaced, one
// SquaredDistance per (row, centroid) pair with the same seeding, argmin,
// fixed-shard SSE reduction and empty-cluster re-seed; `reseeds` counts the
// re-seeds so a test can show it took that path.
constexpr std::size_t kAssignGrain = 256;

ClusteringResult ReferenceRunOnce(const linalg::Matrix& x,
                                  const KMeansConfig& cfg, rng::Rng* rng,
                                  int* reseeds) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const int k = cfg.k;
  linalg::Matrix centroids(k, d);
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  const std::size_t first = rng->UniformIndex(n);
  std::copy_n(x.data() + first * d, d, centroids.data());
  for (int c = 1; c < k; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dist =
          linalg::SquaredDistance(x.Row(i), centroids.Row(c - 1));
      if (dist < min_dist[i]) min_dist[i] = dist;
    }
    const std::size_t next = rng->Categorical(min_dist);
    std::copy_n(x.data() + next * d, d, centroids.data() + c * d);
  }

  ClusteringResult result;
  result.assignment.assign(n, 0);
  result.num_clusters = k;
  double prev_sse = std::numeric_limits<double>::max();
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    double sse = 0;
    for (std::size_t begin = 0; begin < n; begin += kAssignGrain) {
      const std::size_t end = std::min(n, begin + kAssignGrain);
      double shard_sse = 0;
      for (std::size_t i = begin; i < end; ++i) {
        double best = std::numeric_limits<double>::max();
        int best_c = 0;
        for (int c = 0; c < k; ++c) {
          const double dist =
              linalg::SquaredDistance(x.Row(i), centroids.Row(c));
          if (dist < best) {
            best = dist;
            best_c = c;
          }
        }
        result.assignment[i] = best_c;
        shard_sse += best;
      }
      sse += shard_sse;
    }
    result.objective = sse;
    result.iterations = iter + 1;

    centroids.Fill(0.0);
    std::vector<int> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const int c = result.assignment[i];
      ++counts[c];
      for (std::size_t j = 0; j < d; ++j) centroids(c, j) += x(i, j);
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        ++*reseeds;
        double far_d = -1;
        std::size_t far_i = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const int ci = result.assignment[i];
          if (counts[ci] <= 1) continue;
          const double dist =
              linalg::SquaredDistance(x.Row(i), centroids.Row(ci));
          if (dist > far_d) {
            far_d = dist;
            far_i = i;
          }
        }
        std::copy_n(x.data() + far_i * d, d, centroids.data() + c * d);
        counts[c] = 1;
        continue;
      }
      for (std::size_t j = 0; j < d; ++j) centroids(c, j) /= counts[c];
    }
    if (prev_sse < std::numeric_limits<double>::max()) {
      const double rel = (prev_sse - sse) / std::max(prev_sse, 1e-300);
      if (rel >= 0 && rel < cfg.tol) {
        result.converged = true;
        break;
      }
    }
    prev_sse = sse;
  }
  return result;
}

// KMeans::Cluster's restart schedule around the reference run: the serial
// Split() stream in deterministic mode, ShardRng substreams otherwise.
ClusteringResult ReferenceCluster(const linalg::Matrix& x,
                                  const KMeansConfig& cfg, std::uint64_t seed,
                                  int* reseeds) {
  const std::uint64_t stream_seed = seed ^ 0x6b6d65616e73ULL;
  rng::Rng rng(stream_seed);
  ClusteringResult best;
  best.objective = std::numeric_limits<double>::max();
  for (int r = 0; r < cfg.restarts; ++r) {
    rng::Rng run_rng = !parallel::Deterministic() && cfg.restarts > 1
                           ? parallel::ShardRng(stream_seed, r)
                           : rng.Split();
    ClusteringResult candidate = ReferenceRunOnce(x, cfg, &run_rng, reseeds);
    if (candidate.objective < best.objective) best = std::move(candidate);
  }
  return best;
}

struct ReferenceCase {
  const char* name;
  int n;
  int d;
  int k;
  bool duplicates;  // 3 distinct points repeated: forces empty clusters
};

linalg::Matrix CaseData(const ReferenceCase& c) {
  if (!c.duplicates) return WellSeparated(3, c.n, c.d, c.n + c.d).x;
  const linalg::Matrix distinct = WellSeparated(3, 3, c.d, 11).x;
  linalg::Matrix x(c.n, c.d);
  for (int i = 0; i < c.n; ++i) {
    for (int j = 0; j < c.d; ++j) x(i, j) = distinct(i % 3, j);
  }
  return x;
}

// Runs under each kernel set the CPU supports and in both determinism
// modes (MCIRBM_DETERMINISTIC=1 and =0), at 1 and 4 threads.
class KMeansReferenceTest
    : public ::testing::TestWithParam<std::tuple<std::string_view, bool>> {
 protected:
  KMeansReferenceTest() {
    parallel::SetDeterministic(std::get<1>(GetParam()));
  }
  ~KMeansReferenceTest() override {
    parallel::SetNumThreads(0);
    parallel::SetDeterministic(parallel::DefaultDeterministic());
  }
  linalg::internal::ScopedGemmKernel kernel_{std::get<0>(GetParam())};
};

TEST_P(KMeansReferenceTest, MatchesScalarReferenceBitwise) {
  const ReferenceCase cases[] = {
      {"rows_not_multiple_of_8_three_shards", 603, 5, 3, false},
      {"k_above_one_center_tile", 150, 6, 7, false},
      {"one_feature", 100, 1, 3, false},
      {"vt_width", 61, 899, 3, false},
      {"duplicate_rows_reseed", 45, 3, 5, true},
  };
  for (const ReferenceCase& c : cases) {
    SCOPED_TRACE(c.name);
    const linalg::Matrix x = CaseData(c);
    KMeansConfig cfg;
    cfg.k = c.k;
    int reseeds = 0;
    const ClusteringResult want = ReferenceCluster(x, cfg, 17, &reseeds);
    if (c.duplicates) {
      EXPECT_GT(reseeds, 0);
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      parallel::SetNumThreads(threads);
      const ClusteringResult got = KMeans(cfg).Cluster(x, 17);
      EXPECT_EQ(got.assignment, want.assignment);
      EXPECT_EQ(std::memcmp(&got.objective, &want.objective, sizeof(double)),
                0)
          << got.objective << " vs " << want.objective;
      EXPECT_EQ(got.iterations, want.iterations);
      EXPECT_EQ(got.converged, want.converged);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndModes, KMeansReferenceTest,
    ::testing::Combine(
        ::testing::ValuesIn(linalg::internal::SupportedGemmKernels()),
        ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_deterministic" : "_fast");
    });

TEST(KMeansDeathTest, MoreClustersThanPointsAborts) {
  linalg::Matrix x{{0.0, 0.0}};
  KMeansConfig cfg;
  cfg.k = 2;
  EXPECT_DEATH(KMeans(cfg).Cluster(x, 1), "fewer instances");
}

TEST(KMeansDeathTest, InvalidConfigAborts) {
  KMeansConfig cfg;
  cfg.k = 0;
  EXPECT_DEATH(KMeans{cfg}, "CHECK failed");
}

}  // namespace
}  // namespace mcirbm::clustering
