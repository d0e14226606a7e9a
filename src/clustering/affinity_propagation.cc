#include "clustering/affinity_propagation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
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
constexpr std::size_t kColumnGrain = 128;
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

// r(i,k) <- d·r(i,k) + (1−d)·(s(i,k) − cap) over [begin, end).
void DampResponsibilities(const double* s, double cap, std::size_t begin,
                          std::size_t end, double damping, double* r) {
  const double fresh = 1 - damping;
  for (std::size_t k = begin; k < end; ++k) {
    const double newr = s[k] - cap;
    r[k] = damping * r[k] + fresh * newr;
  }
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

// The column-sum pass over columns [k0, k1), at most kColumnGrain wide:
// the slice's sums build up in a local array and are stored once.
void ColumnSumPass(const Messages& m, std::size_t k0, std::size_t k1) {
  const std::size_t width = k1 - k0;
  double acc[kColumnGrain];
  std::fill_n(acc, width, 0.0);
  for (std::size_t i = 0; i < m.n; ++i) {
    const double* rslice = m.r + i * m.n + k0;
    AddPositive(rslice, 0, std::clamp(i, k0, k1) - k0, acc);
    AddPositive(rslice, std::clamp(i + 1, k0, k1) - k0, width, acc);
  }
  std::copy_n(acc, width, m.colsum + k0);
  for (std::size_t k = k0; k < k1; ++k) m.rdiag[k] = m.r[k * m.n + k];
}

// The row sweep's two max scans run in lanes. A lane group is one value of
// V, kLanes doubles (a vector on AVX-512F, a scalar on the portable set),
// with a matching I of 64-bit column indices, and a block is U groups, so
// lane j of a block takes k = j, j + W, j + 2W, ... (W = U·kLanes). Each
// lane sees an ascending subsequence; with the serial scan's strict > per
// lane, its pick is the first maximum of that subsequence, and the first
// maximum of the row is the lane pick that Precedes the others. The scans
// thus return exactly the index and the value bits of the serial scan
// (ties, ±0 and NaN included) at any lane split.

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

template <class V>
void Load(const double* p, V& v) {
  std::memcpy(&v, p, sizeof(V));
}

template <class V>
void Store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

// The U groups' lanes as one array, lane j of the block at [j].
template <class T, class V, std::size_t U>
void Spill(const V (&groups)[U], T* out) {
  for (std::size_t u = 0; u < U; ++u) {
    std::memcpy(out + u * sizeof(V) / sizeof(T), &groups[u], sizeof(V));
  }
}

// The lane pick that Precedes the others, {kFloor, n} if no lane took one,
// and its lane.
template <std::size_t W>
Pick FirstOfLanes(const double (&value)[W], const std::int64_t (&index)[W],
                  std::size_t n, std::size_t* lane) {
  Pick first{kFloor, n};
  for (std::size_t j = 0; j < W; ++j) {
    const Pick pick{value[j], static_cast<std::size_t>(index[j])};
    if (Precedes(pick, first)) {
      first = pick;
      *lane = j;
    }
  }
  return first;
}

// Copies src[0, count) to dst, count <= W. Spelled as W guarded stores,
// not a loop over count elements, which g++ turns into a call to memcpy:
// a call would clobber the scans' lane registers.
template <std::size_t W>
void CopyFirst(const double* src, std::size_t count, double* dst) {
  for (std::size_t j = 0; j < W; ++j) {
    if (j < count) dst[j] = src[j];
  }
}

// Row i's sweep, one pass over the row plus, with kRespond, a second pass
// that writes r(i,·). With kElect the first pass updates a(i,·),
// a(i,k) <- d·a(i,k) + (1−d)·min(0, r(k,k) + colsum[k] − max(0, r(i,k)))
// off the diagonal and d·a(i,i) + (1−d)·colsum[i] on it, and scans a + r
// for row i's exemplar, the serial
//   best = -DBL_MAX; for k: if (a[k] + r[k] > best) take k
// (none taken: i elects itself). With kRespond it scans a + s for the
// serial top two
//   best = second = -DBL_MAX; best_k = 0;
//   for k: v = a[k] + s[k];
//     if (v > best) { second = best; best = v; best_k = k; }
//     else if (v > second) second = v;
// and the second pass sets r(i,k) <- d·r(i,k) + (1−d)·(s(i,k) − cap), cap
// being second at best_k and best elsewhere. The scans' lane state stays
// in registers; the diagonal lane is picked by compare and select.
template <class V, class I, std::size_t U, bool kElect, bool kRespond>
void SweepRow(const Messages& m, std::size_t i) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  constexpr std::size_t kWidth = U * kLanes;
  static_assert(sizeof(I) == sizeof(V));
  const std::size_t n = m.n;
  const double d = m.damping;
  const double fresh = 1 - d;
  const double* srow = m.s + i * n;
  double* rrow = m.r + i * n;
  double* arow = m.a + i * n;
  const double* colsum = m.colsum;
  const double* rdiag = m.rdiag;
  const V zero{};
  const V floor = zero + kFloor;
  const I none = I{} + static_cast<std::int64_t>(n);
  const I diag = I{} + static_cast<std::int64_t>(i);
  V best[U], top[U], second[U];
  I best_at[U], top_at[U], second_at[U], at[U];
  for (std::size_t u = 0; u < U; ++u) {
    best[u] = floor;
    top[u] = floor;
    second[u] = floor;
    best_at[u] = none;
    top_at[u] = none;
    second_at[u] = none;
    std::int64_t lanes[kLanes];
    for (std::size_t j = 0; j < kLanes; ++j) {
      lanes[j] = static_cast<std::int64_t>(u * kLanes + j);
    }
    std::memcpy(&at[u], lanes, sizeof(I));
  }

  // One block of kWidth columns; the pointers sit at its first column.
  const auto visit = [&](const double* s, const double* r, double* a,
                         const double* cs_block, const double* rd_block) {
    for (std::size_t u = 0; u < U; ++u) {
      const std::size_t o = u * kLanes;
      V av, rv, cs, rd, sv;
      Load(a + o, av);
      if constexpr (kElect) {
        Load(r + o, rv);
        Load(cs_block + o, cs);
        Load(rd_block + o, rd);
        const V pos = rv > zero ? rv : zero;
        const V without_i = cs - pos;
        const V sum = rd + without_i;
        const V off = sum < zero ? sum : zero;
        const V newa = at[u] == diag ? cs : off;
        av = d * av + fresh * newa;
        Store(a + o, av);
        const V v = av + rv;
        const auto take = v > best[u];
        best[u] = take ? v : best[u];
        best_at[u] = take ? at[u] : best_at[u];
      }
      if constexpr (kRespond) {
        Load(s + o, sv);
        const V v = av + sv;
        const auto above_top = v > top[u];
        const auto above_second = v > second[u];
        const V kept = above_second ? v : second[u];
        const I kept_at = above_second ? at[u] : second_at[u];
        second[u] = above_top ? top[u] : kept;
        second_at[u] = above_top ? top_at[u] : kept_at;
        top[u] = above_top ? v : top[u];
        top_at[u] = above_top ? at[u] : top_at[u];
      }
      at[u] += static_cast<std::int64_t>(kWidth);
    }
  };
  std::size_t k0 = 0;
  for (; k0 + kWidth <= n; k0 += kWidth) {
    visit(srow + k0, rrow + k0, arow + k0, colsum + k0, rdiag + k0);
  }
  if (k0 < n) {
    // The tail runs as one block over copies padded with NaN, which no
    // scan takes; only its real columns' availabilities are stored back.
    const std::size_t tail = n - k0;
    double pad[5][kWidth];
    for (double(&row)[kWidth] : pad) {
      std::fill_n(row, kWidth, std::numeric_limits<double>::quiet_NaN());
    }
    CopyFirst<kWidth>(srow + k0, tail, pad[0]);
    CopyFirst<kWidth>(rrow + k0, tail, pad[1]);
    CopyFirst<kWidth>(arow + k0, tail, pad[2]);
    CopyFirst<kWidth>(colsum + k0, tail, pad[3]);
    CopyFirst<kWidth>(rdiag + k0, tail, pad[4]);
    visit(pad[0], pad[1], pad[2], pad[3], pad[4]);
    if constexpr (kElect) CopyFirst<kWidth>(pad[2], tail, arow + k0);
  }

  double value[kWidth];
  std::int64_t index[kWidth];
  std::size_t lane = 0;
  if constexpr (kElect) {
    Spill(best, value);
    Spill(best_at, index);
    const Pick first = FirstOfLanes(value, index, n, &lane);
    m.exemplars[i] = static_cast<int>(first.index == n ? i : first.index);
  }
  if constexpr (kRespond) {
    Spill(top, value);
    Spill(top_at, index);
    const Pick first = FirstOfLanes(value, index, n, &lane);
    double top_value = kFloor, cap_at_top = kFloor;
    std::size_t top_k = 0;
    if (first.index != n) {
      // The serial second is the first maximum over every k but top_k:
      // the winning lane's second pick or another lane's top.
      double second_value[kWidth];
      std::int64_t second_index[kWidth];
      Spill(second, second_value);
      Spill(second_at, second_index);
      value[lane] = second_value[lane];
      index[lane] = second_index[lane];
      top_value = first.value;
      top_k = first.index;
      cap_at_top = FirstOfLanes(value, index, n, &lane).value;
    }
    DampResponsibilities(srow, top_value, 0, top_k, d, rrow);
    DampResponsibilities(srow, cap_at_top, top_k, top_k + 1, d, rrow);
    DampResponsibilities(srow, top_value, top_k + 1, n, d, rrow);
  }
}

// The row sweep over rows [begin, end). With `elect`, it updates each
// row's availabilities and elects its exemplar; with `respond`, it computes
// the row's next responsibilities.
template <class V, class I, std::size_t U>
void RowSweep(const Messages& m, bool elect, bool respond,
              std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (elect && respond) {
      SweepRow<V, I, U, true, true>(m, i);
    } else if (elect) {
      SweepRow<V, I, U, true, false>(m, i);
    } else {
      SweepRow<V, I, U, false, true>(m, i);
    }
  }
}

// A kernel set's two passes. The portable set's scans keep 4 scalar lanes;
// the AVX-512F set's keep 16, two vectors of 8 doubles. Its target
// attribute confines the ISA to its entry points, as in the GEMM core's
// AVX-512F set, and flatten inlines every helper above into them, so the
// helpers compile for that ISA too.
struct SweepKernels {
  void (*sum_columns)(const Messages&, std::size_t k0, std::size_t k1);
  void (*sweep_rows)(const Messages&, bool elect, bool respond,
                     std::size_t begin, std::size_t end);
};

constexpr SweepKernels kPortable = {&ColumnSumPass,
                                    &RowSweep<double, std::int64_t, 4>};

#if defined(__x86_64__) && defined(__GNUC__)
typedef double Vec8 __attribute__((vector_size(64)));
typedef std::int64_t Vec8i __attribute__((vector_size(64)));

[[gnu::target("avx512f"), gnu::flatten]] void ColumnSumPassAvx512(
    const Messages& m, std::size_t k0, std::size_t k1) {
  ColumnSumPass(m, k0, k1);
}
[[gnu::target("avx512f"), gnu::flatten]] void RowSweepAvx512(
    const Messages& m, bool elect, bool respond, std::size_t begin,
    std::size_t end) {
  RowSweep<Vec8, Vec8i, 2>(m, elect, respond, begin, end);
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
