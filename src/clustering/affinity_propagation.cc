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

// Lane j of an L-lane max scan takes k = j, j + L, ... (the tail goes to
// the first lanes), so each lane sees an ascending subsequence. With the
// same strict > per lane, a lane's pick is the first maximum of its
// subsequence, and the first maximum of the row is the lane pick that
// Precedes the others: the scans below return exactly the index and the
// value bits of the serial scan (ties, ±0 and NaN included) at any L.

// Serial reference: best = -DBL_MAX; for k: if (x[k]+y[k] > best) take k.
// Returns the taken index, or n if no sum exceeds -DBL_MAX.
template <std::size_t L>
std::size_t ArgmaxOfSum(const double* x, const double* y, std::size_t n) {
  double best[L];
  std::size_t at[L];
  for (std::size_t j = 0; j < L; ++j) {
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
  for (; k0 + L <= n; k0 += L) {
    for (std::size_t j = 0; j < L; ++j) visit(j, k0 + j);
  }
  for (std::size_t j = 0; k0 + j < n; ++j) visit(j, k0 + j);
  Pick first{kFloor, n};
  for (std::size_t j = 0; j < L; ++j) {
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

template <std::size_t L>
TopTwo TopTwoOfSum(const double* x, const double* y, std::size_t n) {
  double best[L], second[L];
  std::size_t best_at[L], second_at[L];
  for (std::size_t j = 0; j < L; ++j) {
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
  for (; k0 + L <= n; k0 += L) {
    for (std::size_t j = 0; j < L; ++j) visit(j, k0 + j);
  }
  for (std::size_t j = 0; k0 + j < n; ++j) visit(j, k0 + j);
  Pick first{kFloor, n};
  std::size_t winner = 0;
  for (std::size_t j = 0; j < L; ++j) {
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
  for (std::size_t j = 0; j < L; ++j) {
    const Pick lane = j == winner ? Pick{second[j], second_at[j]}
                                  : Pick{best[j], best_at[j]};
    if (Precedes(lane, runner_up)) runner_up = lane;
  }
  return {first.value, first.index, runner_up.value};
}

// Row i's responsibilities from its availabilities a and similarities s.
template <std::size_t L>
void UpdateResponsibilityRow(const double* s, const double* a,
                             std::size_t n, double damping, double* r) {
  const TopTwo top = TopTwoOfSum<L>(a, s, n);
  DampResponsibilities(s, top.best, 0, top.best_k, damping, r);
  DampResponsibilities(s, top.second, top.best_k, top.best_k + 1, damping,
                       r);
  DampResponsibilities(s, top.best, top.best_k + 1, n, damping, r);
}

// The n×n messages and the per-iteration vectors one run passes between
// its passes.
struct Messages {
  const double* s;
  double* r;
  double* a;
  double* colsum;  // sum over i != k of max(0, r(i,k))
  double* rdiag;   // r(k,k) at the start of the sweep
  int* exemplars;
  std::size_t n;
  double damping;
};

// The column-sum pass over columns [k0, k1).
void ColumnSumPass(const Messages& m, std::size_t k0, std::size_t k1) {
  std::fill(m.colsum + k0, m.colsum + k1, 0.0);
  for (std::size_t i = 0; i < m.n; ++i) {
    const double* rrow = m.r + i * m.n;
    AddPositive(rrow, k0, std::clamp(i, k0, k1), m.colsum);
    AddPositive(rrow, std::clamp(i + 1, k0, k1), k1, m.colsum);
  }
  for (std::size_t k = k0; k < k1; ++k) m.rdiag[k] = m.r[k * m.n + k];
}

// The row sweep over rows [begin, end). With `elect`, it updates row i's
// availabilities and elects its exemplar; with `respond`, it then computes
// the row's next responsibilities while the row is in cache.
template <std::size_t L>
void RowSweep(const Messages& m, bool elect, bool respond,
              std::size_t begin, std::size_t end) {
  const std::size_t n = m.n;
  const double d = m.damping;
  for (std::size_t i = begin; i < end; ++i) {
    double* arow = m.a + i * n;
    double* rrow = m.r + i * n;
    if (elect) {
      DampAvailabilities(rrow, m.colsum, m.rdiag, 0, i, d, arow);
      arow[i] = d * arow[i] + (1 - d) * m.colsum[i];
      DampAvailabilities(rrow, m.colsum, m.rdiag, i + 1, n, d, arow);
      const std::size_t best_k = ArgmaxOfSum<L>(arow, rrow, n);
      m.exemplars[i] = static_cast<int>(best_k == n ? i : best_k);
    }
    if (respond) UpdateResponsibilityRow<L>(m.s + i * n, arow, n, d, rrow);
  }
}

// A kernel set's two passes. The portable set's scans keep 4 lanes; the
// AVX-512F set's keep 8, one vector of doubles. Its target attribute
// confines the ISA to its entry points, as in the GEMM core's AVX-512F set,
// and flatten inlines every helper above into them, so the helpers compile
// for that ISA too.
struct SweepKernels {
  void (*sum_columns)(const Messages&, std::size_t k0, std::size_t k1);
  void (*sweep_rows)(const Messages&, bool elect, bool respond,
                     std::size_t begin, std::size_t end);
};

constexpr SweepKernels kPortable = {&ColumnSumPass, &RowSweep<4>};

#if defined(__x86_64__) && defined(__GNUC__)
[[gnu::target("avx512f"), gnu::flatten]] void ColumnSumPassAvx512(
    const Messages& m, std::size_t k0, std::size_t k1) {
  ColumnSumPass(m, k0, k1);
}
[[gnu::target("avx512f"), gnu::flatten]] void RowSweepAvx512(
    const Messages& m, bool elect, bool respond, std::size_t begin,
    std::size_t end) {
  RowSweep<8>(m, elect, respond, begin, end);
}
constexpr SweepKernels kAvx512 = {&ColumnSumPassAvx512, &RowSweepAvx512};
#endif

// The set the GEMM core runs (linalg::GemmKernelName), so one CPU check
// and one test seam (linalg::internal::ScopedGemmKernel) pick both.
const SweepKernels& ActiveKernels() {
#if defined(__x86_64__) && defined(__GNUC__)
  if (linalg::GemmKernelName() == "avx512") return kAvx512;
#endif
  return kPortable;
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
// Each iteration is one column-sum pass over r plus one row sweep; rows
// never read each other's messages, only colsum and the snapshot rdiag.
// The caller's n×n buffers are reused across probes and zeroed here.
ApRun RunMessagePassing(const linalg::Matrix& s,
                        const AffinityPropagationConfig& cfg,
                        linalg::Matrix* responsibilities,
                        linalg::Matrix* availabilities) {
  const SweepKernels& kernels = ActiveKernels();
  const std::size_t n = s.rows();
  linalg::Matrix& r = *responsibilities;
  linalg::Matrix& a = *availabilities;
  r.Fill(0.0);
  a.Fill(0.0);
  std::vector<double> colsum(n);
  std::vector<double> rdiag(n);
  std::vector<int> exemplars(n);
  std::vector<int> prev_exemplars(n, -1);
  const Messages m{s.data(),     r.data(),     a.data(),
                   colsum.data(), rdiag.data(), exemplars.data(),
                   n,             cfg.damping};
  int stable = 0;
  ApRun run;

  // The first iteration's responsibilities (a = 0).
  parallel::ParallelFor(n, kRowGrain, [&](std::size_t begin,
                                          std::size_t end) {
    kernels.sweep_rows(m, false, true, begin, end);
  });
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    run.iterations = iter + 1;
    // Nothing reads the responsibilities past the cap.
    const bool respond = iter + 1 < cfg.max_iterations;
    parallel::ParallelFor(n, kColumnGrain, [&](std::size_t k0,
                                               std::size_t k1) {
      kernels.sum_columns(m, k0, k1);
    });
    parallel::ParallelFor(n, kRowGrain, [&](std::size_t begin,
                                            std::size_t end) {
      kernels.sweep_rows(m, true, respond, begin, end);
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

namespace internal {

int SearchPreference(double lo, double hi, int n,
                     const AffinityPropagationConfig& config,
                     const std::function<PreferenceProbe(double)>& probe) {
  const int target = config.target_clusters;
  const int floor_gap = std::abs(n - target);
  PreferenceProbe best = probe(lo);
  int best_index = 0;
  int best_gap = std::abs(best.num_exemplars - target);
  int lo_exemplars = best.num_exemplars;
  for (int step = 0; step < config.preference_search_steps && best_gap > 0;
       ++step) {
    const double mid = 0.5 * (lo + hi);
    const PreferenceProbe got = probe(mid);
    const int gap = std::abs(got.num_exemplars - target);
    if (gap < best_gap ||
        (gap == best_gap && got.converged && !best.converged)) {
      best_gap = gap;
      best = got;
      best_index = step + 1;
    }
    if (got.num_exemplars > target) {
      hi = mid;  // too many clusters: make preference more negative
    } else if (got.num_exemplars < target) {
      lo = mid;
      lo_exemplars = got.num_exemplars;
    } else {
      break;
    }
    // The all-exemplar floor: both ends of the bracket hold every point as
    // its own exemplar. A later probe that lands there too has the floor's
    // gap, so it can win only through the converged tie-break.
    const bool tie_break_open = best_gap == floor_gap && !best.converged;
    if (lo_exemplars == n && got.num_exemplars == n && !tie_break_open) break;
  }
  return best_index;
}

}  // namespace internal

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
    // Bisection on preference: more negative -> fewer exemplars. The
    // bracket runs from 4× the lowest similarity (very few clusters) to
    // the highest (many).
    std::vector<ApRun> runs;
    const int chosen = internal::SearchPreference(
        lo_sim * 4.0, std::min(hi_sim, -1e-9), static_cast<int>(n), config_,
        [&](double pref) {
          runs.push_back(run_with_pref(pref));
          return internal::PreferenceProbe{runs.back().num_exemplars,
                                           runs.back().converged};
        });
    best_run = std::move(runs[chosen]);
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
