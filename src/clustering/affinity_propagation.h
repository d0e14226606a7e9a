// Affinity Propagation (Frey & Dueck, Science 2007; the paper's "AP"
// baseline, ref [59]).
//
// Message passing between responsibilities r(i,k) and availabilities
// a(i,k) on a negative-squared-distance similarity matrix. The shared
// preference (self-similarity) controls the number of exemplars; the
// default is the median similarity. An optional bisection mode searches a
// preference that yields a requested cluster count, since the paper's
// evaluation compares against K-class ground truth.
//
// The bisection stops early at the all-exemplar floor, where AP lands when
// the preference is far below the similarity range: once the bracket's
// low end and the newest midpoint both return every point as its own
// exemplar (see internal::SearchPreference).
//
// Each iteration is one column-sum pass and one row sweep, both on the
// kernel set the GEMM core runs (linalg::GemmKernelName). The sweep makes
// two passes per row: the first updates the row's availabilities and, in
// the same pass, scans a + r for its exemplar and a + s for the top two;
// the second writes its responsibilities. The scans run in lanes whose
// best values and indices stay in registers: 16 lanes, two 8-double
// vectors, on the AVX-512F set, and 4 scalar lanes on the portable one.
// Each lane visits its columns in ascending order and the lane merge
// returns the serial scan's first maximum, and the build never fuses a
// multiply and an add, so both sets give the plain four-pass loop's result
// bit for bit.
#ifndef MCIRBM_CLUSTERING_AFFINITY_PROPAGATION_H_
#define MCIRBM_CLUSTERING_AFFINITY_PROPAGATION_H_

#include <functional>

#include "clustering/clusterer.h"

namespace mcirbm::clustering {

/// Affinity Propagation configuration.
struct AffinityPropagationConfig {
  int max_iterations = 200;     ///< message-passing cap
  int convergence_window = 15;  ///< stop after this many stable iterations
  double damping = 0.7;         ///< message damping in [0.5, 1)

  /// If > 0, bisection-search the preference so the exemplar count equals
  /// this value (capped at `preference_search_steps` probes); otherwise use
  /// the median-similarity preference and accept whatever count emerges.
  int target_clusters = 0;
  int preference_search_steps = 12;
};

/// Deterministic Affinity Propagation clusterer (seed used only to break
/// exact message ties via tiny similarity jitter).
class AffinityPropagation : public Clusterer {
 public:
  explicit AffinityPropagation(const AffinityPropagationConfig& config);

  std::string name() const override { return "AP"; }
  ClusteringResult Cluster(const linalg::Matrix& x,
                           std::uint64_t seed) const override;

 private:
  AffinityPropagationConfig config_;
};

namespace internal {

/// What the preference search reads from one message-passing run.
struct PreferenceProbe {
  int num_exemplars = 0;
  bool converged = false;
};

/// The preference bisection behind `target_clusters > 0` on n points.
/// Probes `lo` first, then up to `config.preference_search_steps`
/// midpoints of [lo, hi], moving `hi` down while a probe yields more
/// exemplars than the target and `lo` up while it yields fewer. Keeps the
/// probe closest to the target (the earliest on a tie, unless a later one
/// converged and it did not) and returns its index in call order. Stops at
/// the target, or at the all-exemplar floor: when the count at the current
/// low end and the newest probe's are both n, every later midpoint is
/// assumed to land there too, so none could come closer; the search goes
/// on only while such a probe could still win the converged tie-break.
int SearchPreference(double lo, double hi, int n,
                     const AffinityPropagationConfig& config,
                     const std::function<PreferenceProbe(double)>& probe);

}  // namespace internal

}  // namespace mcirbm::clustering

#endif  // MCIRBM_CLUSTERING_AFFINITY_PROPAGATION_H_
