#include "clustering/affinity_propagation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "clustering/partition.h"
#include "linalg/ops.h"
#include "linalg/stats.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"
#include "util/check.h"

namespace mcirbm::clustering {
namespace {

// Shard widths. The sweep owns whole rows; the column-sum pass owns whole
// columns, so each column sum adds its rows in ascending order at any
// thread count.
constexpr std::size_t kRowGrain = 32;
constexpr std::size_t kColumnGrain = 256;
// Independent accumulators per max scan (see ArgmaxOfSum).
constexpr std::size_t kLanes = 4;
constexpr double kFloor = -std::numeric_limits<double>::max();

// The inner loops below are free functions over raw pointers with the
// max/min/select spelled as named-temporary ternaries: that is the form
// g++ vectorizes. Each stored element keeps the serial formula, so the
// results are bit-identical to a plain scalar loop.

// acc[k] += max(0, r[k]) for k in [begin, end).
void AddPositive(const double* r, std::size_t begin, std::size_t end,
                 double* acc) {
  for (std::size_t k = begin; k < end; ++k) {
    const double x = r[k];
    const double pos = x > 0.0 ? x : 0.0;
    acc[k] += pos;
  }
}

// Off-diagonal availabilities of row i over [begin, end):
// a(i,k) <- d·a(i,k) + (1−d)·min(0, r(k,k) + colsum[k] − max(0, r(i,k))).
void DampAvailabilities(const double* r, const double* colsum,
                        const double* rdiag, std::size_t begin,
                        std::size_t end, double damping, double* a) {
  const double fresh = 1 - damping;
  for (std::size_t k = begin; k < end; ++k) {
    const double x = r[k];
    const double pos = x > 0.0 ? x : 0.0;
    const double without_i = colsum[k] - pos;
    const double sum = rdiag[k] + without_i;
    const double newa = sum < 0.0 ? sum : 0.0;
    a[k] = damping * a[k] + fresh * newa;
  }
}

// r(i,k) <- d·r(i,k) + (1−d)·(s(i,k) − cap) over [begin, end).
void DampResponsibilities(const double* s, double cap, std::size_t begin,
                          std::size_t end, double damping, double* r) {
  const double fresh = 1 - damping;
  for (std::size_t k = begin; k < end; ++k) {
    const double newr = s[k] - cap;
    r[k] = damping * r[k] + fresh * newr;
  }
}

// A max-scan candidate; index n (past the row) means "none".
struct Pick {
  double value;
  std::size_t index;
};

// (value descending, index ascending): the order in which a serial
// strict-> scan prefers candidates.
bool Precedes(const Pick& x, const Pick& y) {
  return x.value > y.value || (x.value == y.value && x.index < y.index);
}

// Lane j of a max scan takes k = j, j + kLanes, ... (the tail goes to the
// first lanes), so each lane sees an ascending subsequence. With the same
// strict > per lane, a lane's pick is the first maximum of its
// subsequence, and the first maximum of the row is the lane pick that
// Precedes the others: the scans below return exactly the index and the
// value bits of the serial scan (ties, ±0 and NaN included).

// Serial reference: best = -DBL_MAX; for k: if (x[k]+y[k] > best) take k.
// Returns the taken index, or n if no sum exceeds -DBL_MAX.
std::size_t ArgmaxOfSum(const double* x, const double* y, std::size_t n) {
  double best[kLanes];
  std::size_t at[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) {
    best[j] = kFloor;
    at[j] = n;
  }
  auto visit = [&](std::size_t j, std::size_t k) {
    const double v = x[k] + y[k];
    const bool take = v > best[j];
    best[j] = take ? v : best[j];
    at[j] = take ? k : at[j];
  };
  std::size_t k0 = 0;
  for (; k0 + kLanes <= n; k0 += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) visit(j, k0 + j);
  }
  for (std::size_t j = 0; k0 + j < n; ++j) visit(j, k0 + j);
  Pick first{kFloor, n};
  for (std::size_t j = 0; j < kLanes; ++j) {
    const Pick lane{best[j], at[j]};
    if (Precedes(lane, first)) first = lane;
  }
  return first.index;
}

// Top two of x[k] + y[k] by the serial scan
//   best = second = -DBL_MAX; best_k = 0;
//   for k: v = x[k]+y[k];
//     if (v > best) { second = best; best = v; best_k = k; }
//     else if (v > second) second = v;
struct TopTwo {
  double best;
  std::size_t best_k;
  double second;
};

TopTwo TopTwoOfSum(const double* x, const double* y, std::size_t n) {
  double best[kLanes], second[kLanes];
  std::size_t best_at[kLanes], second_at[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) {
    best[j] = second[j] = kFloor;
    best_at[j] = second_at[j] = n;
  }
  auto visit = [&](std::size_t j, std::size_t k) {
    const double v = x[k] + y[k];
    const bool above_best = v > best[j];
    const bool above_second = v > second[j];
    const double kept = above_second ? v : second[j];
    const std::size_t kept_at = above_second ? k : second_at[j];
    second[j] = above_best ? best[j] : kept;
    second_at[j] = above_best ? best_at[j] : kept_at;
    best[j] = above_best ? v : best[j];
    best_at[j] = above_best ? k : best_at[j];
  };
  std::size_t k0 = 0;
  for (; k0 + kLanes <= n; k0 += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) visit(j, k0 + j);
  }
  for (std::size_t j = 0; k0 + j < n; ++j) visit(j, k0 + j);
  Pick first{kFloor, n};
  std::size_t winner = 0;
  for (std::size_t j = 0; j < kLanes; ++j) {
    const Pick lane{best[j], best_at[j]};
    if (Precedes(lane, first)) {
      first = lane;
      winner = j;
    }
  }
  if (first.index == n) return {kFloor, 0, kFloor};
  // The runner-up is the first maximum over every k but best_k: the
  // winning lane's second pick or another lane's first.
  Pick runner_up{kFloor, n};
  for (std::size_t j = 0; j < kLanes; ++j) {
    const Pick lane = j == winner ? Pick{second[j], second_at[j]}
                                  : Pick{best[j], best_at[j]};
    if (Precedes(lane, runner_up)) runner_up = lane;
  }
  return {first.value, first.index, runner_up.value};
}

// Row i's responsibilities from its availabilities a and similarities s.
void UpdateResponsibilityRow(const double* s, const double* a,
                             std::size_t n, double damping, double* r) {
  const TopTwo top = TopTwoOfSum(a, s, n);
  DampResponsibilities(s, top.best, 0, top.best_k, damping, r);
  DampResponsibilities(s, top.second, top.best_k, top.best_k + 1, damping,
                       r);
  DampResponsibilities(s, top.best, top.best_k + 1, n, damping, r);
}

// One message-passing run: the exemplar-based assignment (not yet
// compact) and its statistics.
struct ApRun {
  std::vector<int> exemplar_of;  // exemplar index per instance
  int num_exemplars = 0;
  int iterations = 0;
  bool converged = false;
  double net_similarity = 0.0;
};

// Runs message passing with the preference already on s's diagonal.
// Each iteration is one column-sum pass over r plus one row sweep. The
// sweep updates row i's availabilities, elects its exemplar, and computes
// the next iteration's responsibilities while the row is in cache; rows
// never read each other's messages, only colsum and the snapshot rdiag.
// The caller's n×n buffers are reused across probes and zeroed here.
ApRun RunMessagePassing(const linalg::Matrix& s,
                        const AffinityPropagationConfig& cfg,
                        linalg::Matrix* responsibilities,
                        linalg::Matrix* availabilities) {
  const std::size_t n = s.rows();
  const double damping = cfg.damping;
  linalg::Matrix& r = *responsibilities;
  linalg::Matrix& a = *availabilities;
  r.Fill(0.0);
  a.Fill(0.0);
  std::vector<double> colsum(n);  // sum over i != k of max(0, r(i,k))
  std::vector<double> rdiag(n);   // r(k,k) at the start of the sweep
  std::vector<int> exemplars(n);
  std::vector<int> prev_exemplars(n, -1);
  int stable = 0;
  ApRun run;

  // The first iteration's responsibilities (a = 0).
  parallel::ParallelFor(n, kRowGrain, [&](std::size_t begin,
                                          std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      UpdateResponsibilityRow(s.data() + i * n, a.data() + i * n, n, damping,
                              r.data() + i * n);
    }
  });
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    run.iterations = iter + 1;
    const bool last = iter + 1 == cfg.max_iterations;
    parallel::ParallelFor(n, kColumnGrain, [&](std::size_t k0,
                                               std::size_t k1) {
      std::fill(colsum.begin() + k0, colsum.begin() + k1, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double* rrow = r.data() + i * n;
        AddPositive(rrow, k0, std::clamp(i, k0, k1), colsum.data());
        AddPositive(rrow, std::clamp(i + 1, k0, k1), k1, colsum.data());
      }
      for (std::size_t k = k0; k < k1; ++k) rdiag[k] = r(k, k);
    });
    parallel::ParallelFor(n, kRowGrain, [&](std::size_t begin,
                                            std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        double* arow = a.data() + i * n;
        double* rrow = r.data() + i * n;
        DampAvailabilities(rrow, colsum.data(), rdiag.data(), 0, i, damping,
                           arow);
        arow[i] = damping * arow[i] + (1 - damping) * colsum[i];
        DampAvailabilities(rrow, colsum.data(), rdiag.data(), i + 1, n,
                           damping, arow);
        const std::size_t best_k = ArgmaxOfSum(arow, rrow, n);
        exemplars[i] = static_cast<int>(best_k == n ? i : best_k);
        if (!last) {  // nothing reads the responsibilities past the cap
          UpdateResponsibilityRow(s.data() + i * n, arow, n, damping, rrow);
        }
      }
    });
    if (exemplars == prev_exemplars) {
      if (++stable >= cfg.convergence_window) {
        run.converged = true;
        break;
      }
    } else {
      stable = 0;
    }
    prev_exemplars = exemplars;
  }
  run.exemplar_of = std::move(exemplars);

  // A point is an exemplar iff it elects itself; re-route every point to
  // its most similar actual exemplar for a consistent final assignment.
  std::vector<std::size_t> exemplar_set;
  for (std::size_t i = 0; i < n; ++i) {
    if (run.exemplar_of[i] == static_cast<int>(i)) exemplar_set.push_back(i);
  }
  if (exemplar_set.empty()) {
    // Degenerate (all availabilities collapsed): pick the point with the
    // highest self-responsibility as the single exemplar. rdiag holds the
    // final iteration's r(k,k); r itself may already be one step ahead.
    std::size_t best_i = 0;
    double best = kFloor;
    for (std::size_t i = 0; i < n; ++i) {
      if (rdiag[i] > best) {
        best = rdiag[i];
        best_i = i;
      }
    }
    exemplar_set.push_back(best_i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double best = kFloor;
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

}  // namespace

AffinityPropagation::AffinityPropagation(
    const AffinityPropagationConfig& config)
    : config_(config) {
  MCIRBM_CHECK(config.damping >= 0.5 && config.damping < 1.0);
  MCIRBM_CHECK_GT(config.max_iterations, 0);
}

ClusteringResult AffinityPropagation::Cluster(const linalg::Matrix& x,
                                              std::uint64_t seed) const {
  const std::size_t n = x.rows();
  MCIRBM_CHECK_GT(n, 0u);
  if (n == 1) {
    // Message passing is undefined for one point; the answer is trivial.
    ClusteringResult trivial;
    trivial.assignment = {0};
    trivial.num_clusters = 1;
    trivial.converged = true;
    return trivial;
  }

  // Similarity: negative squared Euclidean distance, plus tiny jitter to
  // break message-passing oscillation ties (Frey & Dueck's trick).
  linalg::Matrix s = linalg::PairwiseSquaredDistances(x);
  // The pre-jitter off-diagonal similarities give the median preference
  // and the bisection's bracket; Percentile consumes the buffer, so it is
  // gone before message passing allocates its two n×n matrices.
  std::vector<double> off_diag;
  off_diag.reserve(n * (n - 1));
  rng::Rng rng(seed ^ 0x6170726f70ULL);  // "aprop" stream tag
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      s(i, j) = -s(i, j);
      if (i != j) off_diag.push_back(s(i, j));
      s(i, j) += 1e-12 * rng.Gaussian();
    }
  }
  double lo_sim = off_diag[0], hi_sim = off_diag[0];
  for (double v : off_diag) {
    lo_sim = std::min(lo_sim, v);
    hi_sim = std::max(hi_sim, v);
  }
  const double median_sim = linalg::Percentile(std::move(off_diag), 50.0);

  // Each probe writes its preference over s's diagonal in place and
  // reuses the same two message buffers.
  linalg::Matrix r(n, n), a(n, n);
  auto run_with_pref = [&](double pref) {
    for (std::size_t i = 0; i < n; ++i) s(i, i) = pref;
    return RunMessagePassing(s, config_, &r, &a);
  };

  ApRun best_run;
  if (config_.target_clusters <= 0) {
    best_run = run_with_pref(median_sim);
  } else {
    // Bisection on preference: more negative -> fewer exemplars.
    double lo = lo_sim * 4.0;              // very few clusters
    double hi = std::min(hi_sim, -1e-9);   // many clusters
    ApRun lo_run = run_with_pref(lo);
    best_run = lo_run;
    int best_gap = std::abs(lo_run.num_exemplars - config_.target_clusters);
    for (int step = 0; step < config_.preference_search_steps && best_gap > 0;
         ++step) {
      const double mid = 0.5 * (lo + hi);
      ApRun mid_run = run_with_pref(mid);
      const int gap =
          std::abs(mid_run.num_exemplars - config_.target_clusters);
      if (gap < best_gap ||
          (gap == best_gap && mid_run.converged && !best_run.converged)) {
        best_gap = gap;
        best_run = mid_run;
      }
      if (mid_run.num_exemplars > config_.target_clusters) {
        hi = mid;  // too many clusters: make preference more negative
      } else if (mid_run.num_exemplars < config_.target_clusters) {
        lo = mid;
      } else {
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

}  // namespace mcirbm::clustering
