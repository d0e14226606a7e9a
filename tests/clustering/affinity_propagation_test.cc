#include "clustering/affinity_propagation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "clustering/partition.h"
#include "data/synthetic.h"
#include "linalg/ops.h"
#include "linalg/stats.h"
#include "metrics/external.h"
#include "rng/rng.h"

namespace mcirbm::clustering {
namespace {

data::Dataset Blobs(int classes, int n, double separation,
                    std::uint64_t seed) {
  data::GaussianMixtureSpec spec;
  spec.name = "blobs";
  spec.num_classes = classes;
  spec.num_instances = n;
  spec.num_features = 4;
  spec.separation = separation;
  return data::GenerateGaussianMixture(spec, seed);
}

// ---------------------------------------------------------------------
// Reference: the straightforward message-passing loop (responsibilities,
// column sums, availabilities, exemplars as four separate scalar passes)
// and the preference handling around it, kept as the definition the
// fused kernel must reproduce bit for bit.
struct ReferenceRun {
  std::vector<int> exemplar_of;
  int num_exemplars = 0;
  int iterations = 0;
  bool converged = false;
  double net_similarity = 0.0;
};

ReferenceRun ReferenceMessagePassing(const linalg::Matrix& s,
                                     const AffinityPropagationConfig& cfg) {
  const std::size_t n = s.rows();
  linalg::Matrix r(n, n);
  linalg::Matrix a(n, n);
  std::vector<int> prev_exemplars(n, -1);
  int stable = 0;
  ReferenceRun run;
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    run.iterations = iter + 1;
    for (std::size_t i = 0; i < n; ++i) {
      double best = -std::numeric_limits<double>::max();
      double second = best;
      std::size_t best_k = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const double v = a(i, k) + s(i, k);
        if (v > best) {
          second = best;
          best = v;
          best_k = k;
        } else if (v > second) {
          second = v;
        }
      }
      for (std::size_t k = 0; k < n; ++k) {
        const double cap = (k == best_k) ? second : best;
        const double newr = s(i, k) - cap;
        r(i, k) = cfg.damping * r(i, k) + (1 - cfg.damping) * newr;
      }
    }
    std::vector<double> colsum(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        if (i != k) colsum[k] += std::max(0.0, r(i, k));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        double newa;
        if (i == k) {
          newa = colsum[k];
        } else {
          const double without_i = colsum[k] - std::max(0.0, r(i, k));
          newa = std::min(0.0, r(k, k) + without_i);
        }
        a(i, k) = cfg.damping * a(i, k) + (1 - cfg.damping) * newa;
      }
    }
    std::vector<int> exemplars(n);
    for (std::size_t i = 0; i < n; ++i) {
      double best = -std::numeric_limits<double>::max();
      std::size_t best_k = i;
      for (std::size_t k = 0; k < n; ++k) {
        const double v = a(i, k) + r(i, k);
        if (v > best) {
          best = v;
          best_k = k;
        }
      }
      exemplars[i] = static_cast<int>(best_k);
    }
    if (exemplars == prev_exemplars) {
      if (++stable >= cfg.convergence_window) {
        run.converged = true;
        run.exemplar_of = std::move(exemplars);
        break;
      }
    } else {
      stable = 0;
    }
    prev_exemplars = exemplars;
    run.exemplar_of = std::move(exemplars);
  }
  std::vector<std::size_t> exemplar_set;
  for (std::size_t i = 0; i < n; ++i) {
    if (run.exemplar_of[i] == static_cast<int>(i)) exemplar_set.push_back(i);
  }
  if (exemplar_set.empty()) {
    std::size_t best_i = 0;
    double best = -std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < n; ++i) {
      if (r(i, i) > best) {
        best = r(i, i);
        best_i = i;
      }
    }
    exemplar_set.push_back(best_i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double best = -std::numeric_limits<double>::max();
    std::size_t best_e = exemplar_set[0];
    for (std::size_t e : exemplar_set) {
      if (s(i, e) > best) {
        best = s(i, e);
        best_e = e;
      }
    }
    run.exemplar_of[i] = static_cast<int>(best_e);
    run.net_similarity += s(i, best_e);
  }
  run.num_exemplars = static_cast<int>(exemplar_set.size());
  return run;
}

ClusteringResult ReferenceCluster(const linalg::Matrix& x,
                                  const AffinityPropagationConfig& cfg,
                                  std::uint64_t seed) {
  const std::size_t n = x.rows();
  linalg::Matrix s = linalg::PairwiseSquaredDistances(x);
  std::vector<double> off_diag;
  rng::Rng rng(seed ^ 0x6170726f70ULL);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      s(i, j) = -s(i, j);
      if (i != j) off_diag.push_back(s(i, j));
      s(i, j) += 1e-12 * rng.Gaussian();
    }
  }
  const double median_sim = linalg::Percentile(off_diag, 50.0);
  double lo_sim = median_sim, hi_sim = median_sim;
  for (double v : off_diag) {
    lo_sim = std::min(lo_sim, v);
    hi_sim = std::max(hi_sim, v);
  }
  auto run_with_pref = [&](double pref) {
    linalg::Matrix sp = s;
    for (std::size_t i = 0; i < n; ++i) sp(i, i) = pref;
    return ReferenceMessagePassing(sp, cfg);
  };
  ReferenceRun best_run;
  if (cfg.target_clusters <= 0) {
    best_run = run_with_pref(median_sim);
  } else {
    const int all = static_cast<int>(n);
    double lo = lo_sim * 4.0;
    double hi = std::min(hi_sim, -1e-9);
    best_run = run_with_pref(lo);
    int lo_exemplars = best_run.num_exemplars;
    int best_gap = std::abs(best_run.num_exemplars - cfg.target_clusters);
    for (int step = 0; step < cfg.preference_search_steps && best_gap > 0;
         ++step) {
      const double mid = 0.5 * (lo + hi);
      ReferenceRun mid_run = run_with_pref(mid);
      const int gap = std::abs(mid_run.num_exemplars - cfg.target_clusters);
      if (gap < best_gap ||
          (gap == best_gap && mid_run.converged && !best_run.converged)) {
        best_gap = gap;
        best_run = mid_run;
      }
      if (mid_run.num_exemplars > cfg.target_clusters) {
        hi = mid;
      } else if (mid_run.num_exemplars < cfg.target_clusters) {
        lo = mid;
        lo_exemplars = mid_run.num_exemplars;
      } else {
        break;
      }
      // Stop at the all-exemplar floor unless a probe there could still
      // win the converged tie-break.
      const bool tie_break_open =
          best_gap == all - cfg.target_clusters && !best_run.converged;
      if (lo_exemplars == all && mid_run.num_exemplars == all &&
          !tie_break_open) {
        break;
      }
    }
  }
  ClusteringResult result;
  result.assignment = best_run.exemplar_of;
  result.num_clusters = CompactRelabel(&result.assignment);
  result.iterations = best_run.iterations;
  result.converged = best_run.converged;
  result.objective = best_run.net_similarity;
  return result;
}

// Returns the fused kernel's result for further checks.
ClusteringResult ExpectMatchesReference(const linalg::Matrix& x,
                                        const AffinityPropagationConfig& cfg,
                                        std::uint64_t seed) {
  const ClusteringResult want = ReferenceCluster(x, cfg, seed);
  const ClusteringResult got = AffinityPropagation(cfg).Cluster(x, seed);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.num_clusters, want.num_clusters);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
            std::bit_cast<std::uint64_t>(want.objective))
      << got.objective << " vs " << want.objective;
  return got;
}

// The exactness cases run under each kernel set the CPU supports: the
// sweep follows the GEMM core's set, whose scans keep 8 lanes on AVX-512F
// and 4 on the portable set.
class AffinityPropagationReferenceTest
    : public ::testing::TestWithParam<std::string_view> {
 protected:
  linalg::internal::ScopedGemmKernel kernel_{GetParam()};
};

TEST_P(AffinityPropagationReferenceTest, MatchesReferenceLoopExactly) {
  // Sizes that are not multiples of the scan lanes or the shard grains,
  // and whole AVX-512F sweep blocks (16 columns: 16, 32) with and without
  // a 15-column tail that holds the later rows' diagonals (47).
  for (const int n : {2, 3, 5, 16, 32, 47, 131}) {
    const auto d = Blobs(std::min(n, 3), n, 4.0, 40 + n);
    for (const int target : {0, 2}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << target);
      AffinityPropagationConfig cfg;
      cfg.target_clusters = target;
      ExpectMatchesReference(d.x, cfg, 7);
    }
  }
}

TEST_P(AffinityPropagationReferenceTest, MatchesReferenceWhenTheCapIsHit) {
  const auto d = Blobs(3, 131, 2.0, 8);
  for (const int cap : {1, 2, 9}) {
    for (const int target : {0, 3}) {
      SCOPED_TRACE(::testing::Message() << "cap=" << cap << " k=" << target);
      AffinityPropagationConfig cfg;
      cfg.max_iterations = cap;
      cfg.target_clusters = target;
      const ClusteringResult got = ExpectMatchesReference(d.x, cfg, 3);
      EXPECT_EQ(got.iterations, cap);
      EXPECT_FALSE(got.converged);
    }
  }
}

TEST_P(AffinityPropagationReferenceTest, MatchesReferenceOnExactTies) {
  // Five points, each repeated seven times, at a scale where the 1e-12
  // jitter is below one ulp of every nonzero similarity: duplicate
  // columns then tie exactly, so the scans' first-index rule decides.
  const double centers[5][2] = {{0, 0}, {3, 0}, {0, 4}, {3, 4}, {9, 9}};
  linalg::Matrix x(35, 2);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = 1e6 * centers[i % 5][0];
    x(i, 1) = 1e6 * centers[i % 5][1];
  }
  for (const int target : {0, 2, 5}) {
    SCOPED_TRACE(::testing::Message() << "k=" << target);
    AffinityPropagationConfig cfg;
    cfg.target_clusters = target;
    ExpectMatchesReference(x, cfg, 11);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelSets, AffinityPropagationReferenceTest,
    ::testing::ValuesIn(linalg::internal::SupportedGemmKernels()),
    [](const auto& info) { return std::string(info.param); });

// Drives internal::SearchPreference with a scripted exemplar count per
// probe and counts the probes it runs.
struct ScriptedProbes {
  std::vector<internal::PreferenceProbe> script;
  std::size_t calls = 0;
};

int Search(int n, int target, ScriptedProbes* probes) {
  AffinityPropagationConfig cfg;
  cfg.target_clusters = target;
  return internal::SearchPreference(-140.0, -1e-9, n, cfg, [probes](double) {
    return probes->script.at(probes->calls++);
  });
}

TEST(AffinityPropagationSearchTest, StopsAtTheAllExemplarFloor) {
  // Binarized QB (1055 points, k = 2): the low end already returns every
  // point as an exemplar, and the count jumps from 14 straight back to
  // 1055. Once the newest midpoint lands there too, the bracket holds
  // nothing better: stop after 5 probes and keep the 14.
  ScriptedProbes probes;
  for (int count : {1055, 26, 17, 14, 1055, 1055, 1055, 1055, 1055, 1055,
                    1055, 1055, 1055}) {
    probes.script.push_back({count, true});
  }
  EXPECT_EQ(Search(1055, 2, &probes), 3);
  EXPECT_EQ(probes.calls, 5u);
}

TEST(AffinityPropagationSearchTest, FloorIsJudgedAtTheCurrentLowEnd) {
  // The first probe sits on the floor, but a midpoint with too few
  // exemplars then becomes the low end. A later floor probe closes no
  // bracket, so the search goes on and hits the target.
  ScriptedProbes probes;
  probes.script = {{50, true}, {1, true}, {50, true}, {3, true}};
  EXPECT_EQ(Search(50, 3, &probes), 3);
  EXPECT_EQ(probes.calls, 4u);
}

TEST(AffinityPropagationSearchTest, KeepsSearchingAboveTheFloor) {
  // Binarized SC-like (uci:3, 540 points, k = 2): no probe returns all
  // 540, so the rule never fires. Every step runs, and the first 9 wins
  // the tie with the later ones.
  ScriptedProbes probes;
  for (int count : {10, 20, 13, 11, 10, 9, 9, 10, 10, 10, 9, 9, 10}) {
    probes.script.push_back({count, true});
  }
  EXPECT_EQ(Search(540, 2, &probes), 5);
  EXPECT_EQ(probes.calls, 13u);
}

TEST(AffinityPropagationSearchTest, FloorWaitsForTheConvergedTieBreak) {
  // Every probe lands on the floor. While the kept probe has not
  // converged, a later converged one would replace it, so the search runs
  // on until one converges and stops right after.
  ScriptedProbes probes;
  probes.script = {{50, false}, {50, false}, {50, false}, {50, true},
                   {50, true}};
  EXPECT_EQ(Search(50, 2, &probes), 3);
  EXPECT_EQ(probes.calls, 4u);
}

TEST(AffinityPropagationTest, RecoversWellSeparatedBlobs) {
  const auto d = Blobs(3, 120, 10.0, 1);
  AffinityPropagationConfig cfg;
  cfg.target_clusters = 3;
  const auto result = AffinityPropagation(cfg).Cluster(d.x, 1);
  EXPECT_GT(metrics::ClusteringAccuracy(d.labels, result.assignment), 0.9);
}

TEST(AffinityPropagationTest, TargetClusterSearchHitsK) {
  const auto d = Blobs(3, 90, 8.0, 2);
  AffinityPropagationConfig cfg;
  cfg.target_clusters = 3;
  const auto result = AffinityPropagation(cfg).Cluster(d.x, 1);
  EXPECT_EQ(result.num_clusters, 3);
}

TEST(AffinityPropagationTest, MedianPreferenceYieldsSomeClusters) {
  const auto d = Blobs(3, 80, 6.0, 3);
  AffinityPropagationConfig cfg;  // target_clusters = 0 -> median pref
  const auto result = AffinityPropagation(cfg).Cluster(d.x, 1);
  EXPECT_GE(result.num_clusters, 1);
  EXPECT_LT(result.num_clusters, 80);
}

TEST(AffinityPropagationTest, AssignmentIsCompactAndComplete) {
  const auto d = Blobs(2, 70, 5.0, 4);
  AffinityPropagationConfig cfg;
  cfg.target_clusters = 2;
  auto result = AffinityPropagation(cfg).Cluster(d.x, 1);
  EXPECT_EQ(result.assignment.size(), 70u);
  std::vector<int> copy = result.assignment;
  EXPECT_EQ(CompactRelabel(&copy), result.num_clusters);
  EXPECT_EQ(copy, result.assignment);  // already compact
}

TEST(AffinityPropagationTest, DeterministicGivenSeed) {
  const auto d = Blobs(2, 60, 6.0, 5);
  AffinityPropagationConfig cfg;
  cfg.target_clusters = 2;
  const auto a = AffinityPropagation(cfg).Cluster(d.x, 9);
  const auto b = AffinityPropagation(cfg).Cluster(d.x, 9);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(AffinityPropagationTest, ConvergesOnEasyData) {
  const auto d = Blobs(2, 60, 12.0, 6);
  AffinityPropagationConfig cfg;  // median preference
  const auto result = AffinityPropagation(cfg).Cluster(d.x, 1);
  EXPECT_TRUE(result.converged);
}

TEST(AffinityPropagationDeathTest, BadDampingAborts) {
  AffinityPropagationConfig cfg;
  cfg.damping = 0.3;
  EXPECT_DEATH(AffinityPropagation{cfg}, "CHECK failed");
}

TEST(AffinityPropagationTest, SingleInstanceIsTrivialCluster) {
  linalg::Matrix x(1, 2);
  AffinityPropagationConfig cfg;
  const ClusteringResult r = AffinityPropagation(cfg).Cluster(x, 1);
  EXPECT_EQ(r.num_clusters, 1);
  ASSERT_EQ(r.assignment.size(), 1u);
  EXPECT_EQ(r.assignment[0], 0);
  EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace mcirbm::clustering
