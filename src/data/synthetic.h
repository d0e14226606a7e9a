// Synthetic Gaussian-mixture dataset generator.
//
// This is the substitute substrate for the paper's proprietary/offline
// corpora (MSRA-MM 2.0 image features, UCI tables). The generator
// produces the regime the paper's algorithms operate in: partially
// recoverable class structure, class imbalance, irrelevant feature
// dimensions, and within-class anisotropy.
#ifndef MCIRBM_DATA_SYNTHETIC_H_
#define MCIRBM_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace mcirbm::data {

/// Parameters of a synthetic Gaussian-mixture dataset.
struct GaussianMixtureSpec {
  std::string name;
  int num_classes = 2;
  int num_instances = 100;
  int num_features = 10;

  /// Fraction of features that carry class signal; the rest are pure
  /// N(0,1) noise dims (like uninformative image descriptor bins).
  double informative_fraction = 1.0;

  /// Distance between class centers in units of within-class stddev on the
  /// informative subspace. ~1 = heavily overlapping, ~4 = well separated.
  double separation = 2.0;

  /// Class prior proportions; empty = balanced. Must sum to ~1 otherwise.
  std::vector<double> class_proportions;

  /// Within-class stddev spread across dims: stddev_j drawn uniformly from
  /// [1/anisotropy, anisotropy]. 1.0 = isotropic.
  double anisotropy = 1.0;

  /// Fraction of instances re-sampled around a random *other* class center
  /// (models label noise / genuinely ambiguous instances).
  double confusion_fraction = 0.0;

  /// Fraction of instances replaced by broad outliers (3x stddev).
  double outlier_fraction = 0.0;

  /// Modes per class: 1 = unimodal Gaussian blobs (k-means' best case);
  /// >1 spreads each class over several sub-clusters, the regime of real
  /// image-feature classes where k-means with k = #classes splits classes
  /// across modes while density methods and local consensus still find
  /// label-pure cores.
  int subclusters_per_class = 1;

  /// Distance of sub-cluster centers from their class center, as a
  /// fraction of `separation`.
  double subcluster_spread = 0.5;

  /// If true, each class's within-class stddev and sub-cluster offsets are
  /// scaled by sqrt(k * proportion_c): large classes become spatially
  /// diffuse, small classes compact. Models the imbalanced web-image
  /// regime where k-means carves the dominant class into pieces (raw
  /// accuracy well below the dominant-class share) while density cores
  /// stay label-pure.
  bool scale_spread_by_proportion = false;

  /// Fraction of instances drawn at the tight "core" noise level; the
  /// remainder form a diffuse halo at `halo_scale` times the stddev.
  /// Real feature clouds have exactly this core/halo shape — clusterers
  /// agree on cores (high-purity consensus) and disagree on halos (which
  /// caps raw accuracy). 1.0 = plain Gaussian classes.
  double core_fraction = 1.0;

  /// Noise multiplier for halo instances (only used if core_fraction < 1).
  double halo_scale = 2.5;

  /// Scale heterogeneity of the uninformative dims: each noise dim's
  /// stddev is drawn from Uniform(1, noise_scale_max). Real concatenated
  /// image descriptors mix bins with very different ranges, which is what
  /// makes clustering the *original* features hard until they are
  /// standardized for the Gaussian-unit encoder. 1.0 = homogeneous noise.
  double noise_scale_max = 1.0;

  /// If > 0, replaces the per-class mode layout with `shared_modes` visual
  /// modes common to all classes: every instance is drawn around one mode,
  /// and class labels are *slices* over modes — an instance of class c
  /// lands on a mode owned by c with probability `mode_class_affinity`,
  /// on some other mode otherwise. This is the web-image "relevance
  /// level" regime: clusterable structure = visual themes, labels only
  /// partially aligned with them, so raw clustering accuracy is capped by
  /// the affinity while consensus cores remain highly clusterable.
  /// Mode ownership is allotted to classes proportionally to the priors.
  int shared_modes = 0;
  double mode_class_affinity = 0.7;

  /// Affinity used for halo instances (shared-mode layout only; < 0 means
  /// "same as mode_class_affinity"). Core images of a visual theme share
  /// its dominant relevance label; halo images are nearly random — so
  /// consensus cores are much purer than whole-dataset clustering can be.
  double halo_affinity = -1.0;

  /// Shared-mode layout only: if > 0, a mode's sample stddev is scaled by
  /// pow(num_classes * proportion_of_owner, mode_tightness_exponent) —
  /// modes owned by minority classes become compact, majority-owned modes
  /// diffuse. Models niche visual themes (few, highly similar images)
  /// versus the broad dominant theme. Compact minority modes are what let
  /// an encoder isolate minority-plurality clusters (purity above the
  /// majority share) even though raw distances are noise-dominated.
  /// 0 = off (all modes unit spread).
  double mode_tightness_exponent = 0.0;
};

/// Generates a dataset from `spec`, deterministically from `seed`.
/// Rows are shuffled so class blocks are not contiguous.
Dataset GenerateGaussianMixture(const GaussianMixtureSpec& spec,
                                std::uint64_t seed);

}  // namespace mcirbm::data

#endif  // MCIRBM_DATA_SYNTHETIC_H_
