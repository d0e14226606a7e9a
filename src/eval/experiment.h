// Experiment harness reproducing the paper's evaluation protocol
// (Section V): for each dataset, run {DP, K-means, AP} on three feature
// variants — raw features, plain (G)RBM hidden features, sls(G)RBM hidden
// features — over several repeats, and aggregate external metrics.
#ifndef MCIRBM_EVAL_EXPERIMENT_H_
#define MCIRBM_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "eval/algorithms.h"
#include "metrics/external.h"

namespace mcirbm::eval {

/// Feature representation fed to the clusterers, in the paper's order.
enum class Variant { kRaw = 0, kPlain = 1, kSls = 2 };
inline constexpr int kNumVariants = 3;

/// Display name for a (variant, clusterer) cell in the family's notation,
/// e.g. "DP+slsGRBM" for (kSls, kDensityPeaks) in the GRBM family.
std::string CellName(Variant variant, ClustererKind clusterer,
                     bool grbm_family);

/// Mean and population variance of one metric across repeats.
struct CellStats {
  double mean = 0;
  double variance = 0;
};

/// Aggregated metrics for one (variant, clusterer) cell.
struct AggregatedMetrics {
  CellStats accuracy;
  CellStats purity;
  CellStats rand_index;
  CellStats fmi;
  CellStats ari;
  CellStats nmi;
};

/// Everything measured on one dataset.
struct DatasetExperimentResult {
  std::string dataset;
  int dataset_number = 0;  ///< 1-based figure-axis index
  /// cells[variant][clusterer]
  AggregatedMetrics cells[kNumVariants][kNumClusterers];
  double supervision_coverage = 0;  ///< mean over repeats (sls variant)
  int supervision_clusters = 0;     ///< mean over repeats, rounded
  /// Wall-clock time of this dataset's experiment. When datasets run
  /// concurrently (RunFamilyExperiments fans them out over the pool),
  /// spans include time slices spent on other datasets' work, so the
  /// per-dataset values overlap and their sum exceeds the family total.
  double wall_seconds = 0;
};

/// Harness configuration.
struct ExperimentConfig {
  /// true = datasets I protocol (GRBM family, standardized features);
  /// false = datasets II protocol (RBM family, min-max scaled features).
  bool grbm_family = true;

  rbm::RbmConfig rbm;             ///< num_visible inferred per dataset
  core::SlsConfig sls;            ///< paper defaults set by MakePaperConfig
  core::SupervisionConfig supervision;  ///< K set per dataset
  core::ParallelConfig parallel;  ///< execution-engine settings

  int repeats = 3;
  std::uint64_t seed = 7;

  /// Datasets to run instead of the generated family: loader specs
  /// (data/loaders.h — paths or scheme:rest forms, e.g. a converted
  /// binary artifact). Empty = the family's paper-equivalent synthetic
  /// datasets. Specs that fail to load abort with the loader's message.
  std::vector<std::string> data_specs;

  /// If > 0, stratified-subsample datasets to this many instances before
  /// running (fast bench mode). 0 = full size.
  std::size_t max_instances = 0;
};

/// Returns the paper's hyper-parameters for the given family:
/// slsGRBM — η=0.4, lr=1e-4; slsRBM — η=0.5, lr=1e-5 (Section V.B).
ExperimentConfig MakePaperConfig(bool grbm_family);

/// Runs the full 3x3 protocol on one dataset.
DatasetExperimentResult RunDatasetExperiment(const data::Dataset& dataset,
                                             int dataset_number,
                                             const ExperimentConfig& config);

/// Runs the protocol on every dataset of the family: all 9 MSRA-like sets
/// (grbm_family) or all 6 UCI-like sets — or, when config.data_specs is
/// non-empty, on each loaded spec instead (real-dataset runs).
std::vector<DatasetExperimentResult> RunFamilyExperiments(
    const ExperimentConfig& config);

/// Selects one metric value from an AggregatedMetrics by name:
/// "accuracy" | "purity" | "rand" | "fmi" | "ari" | "nmi".
const CellStats& MetricByName(const AggregatedMetrics& metrics,
                              const std::string& name);

/// Column-average of `metric` over all datasets for one cell.
double FamilyAverage(const std::vector<DatasetExperimentResult>& results,
                     Variant variant, ClustererKind clusterer,
                     const std::string& metric);

}  // namespace mcirbm::eval

#endif  // MCIRBM_EVAL_EXPERIMENT_H_
