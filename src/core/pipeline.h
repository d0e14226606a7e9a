// End-to-end encoder pipeline (Fig. 1 of the paper).
//
//   visible data ──> {DP, K-means, AP} ──> unanimous voting ──>
//   self-learning local supervision ──> sls(G)RBM CD-1 training ──>
//   hidden-layer features for downstream clustering.
#ifndef MCIRBM_CORE_PIPELINE_H_
#define MCIRBM_CORE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sls_config.h"
#include "core/sls_models.h"
#include "linalg/matrix.h"
#include "rbm/config.h"
#include "rbm/training_source.h"
#include "util/param_map.h"
#include "util/status.h"
#include "voting/local_supervision.h"
#include "voting/vote.h"

namespace mcirbm::core {

/// Which encoder to train.
enum class ModelKind {
  kRbm,      ///< plain binary RBM baseline
  kGrbm,     ///< plain Gaussian RBM baseline
  kSlsRbm,   ///< paper model for binary data
  kSlsGrbm,  ///< paper model for real-valued data
};

/// One ordered member of the multi-clustering integration, resolved
/// against clustering::ClustererRegistry by name.
struct VoterSpec {
  std::string clusterer;  ///< registry name ("dp", "kmeans", "ap", ...)
  ParamMap params;        ///< factory parameters; "k" defaults to
                          ///< SupervisionConfig::num_clusters
  /// Independently seeded repeats of this voter (>= 1). Extra repeats of a
  /// randomized clusterer make the unanimous vote stricter: instances it
  /// assigns unstably across restarts lose their credibility.
  int count = 1;
};

/// Parses a comma-separated voter list such as "dp,kmeans*3,ap" into
/// ordered specs (`name` or `name*count`). Names are validated against the
/// registry; parameters beyond "k" are set programmatically on the specs.
StatusOr<std::vector<VoterSpec>> ParseVoterList(const std::string& text);

/// Configuration of the supervision-construction stage.
struct SupervisionConfig {
  int num_clusters = 2;  ///< K passed to the base clusterers
  voting::VoteStrategy strategy = voting::VoteStrategy::kUnanimous;
  int min_cluster_size = 2;

  /// Ordered integration members; defaults to the paper's DP/K-means/AP
  /// trio. The first voter's partition is the one the others are aligned
  /// to, so the order is part of the result.
  std::vector<VoterSpec> voters = {
      {"dp", {}, 1}, {"kmeans", {}, 1}, {"ap", {}, 1}};
};

/// The ordered voter list the integration will run: `config.voters`,
/// after checking it is non-empty and every count is positive
/// (InvalidArgument otherwise).
StatusOr<std::vector<VoterSpec>> ResolveVoterSpecs(
    const SupervisionConfig& config);

/// Runs the configured base clusterers on `x` and integrates their
/// partitions into a LocalSupervision (Section V.A.2). `x` should already
/// be in the representation the encoder will train on. Unknown clusterer
/// names and malformed parameters surface as non-OK Status.
StatusOr<voting::LocalSupervision> TryComputeSelfLearningSupervision(
    const linalg::Matrix& x, const SupervisionConfig& config,
    std::uint64_t seed);

/// Full pipeline configuration.
struct PipelineConfig {
  ModelKind model = ModelKind::kSlsGrbm;
  rbm::RbmConfig rbm;          ///< num_visible may be 0 = infer from data
  SlsConfig sls;               ///< ignored by plain models
  SupervisionConfig supervision;  ///< ignored by plain models
  ParallelConfig parallel;     ///< execution-engine settings
};

/// Builds the untrained encoder of `kind`: the one place a ModelKind
/// becomes a class. The sls kinds train under `sls` and `supervision`;
/// the plain kinds ignore both. `rbm_config` must already carry
/// num_visible.
std::unique_ptr<rbm::RbmBase> MakeEncoder(
    ModelKind kind, const rbm::RbmConfig& rbm_config, const SlsConfig& sls,
    const voting::LocalSupervision& supervision);

/// Applies the execution-engine settings to the global thread pool:
/// resizes it when num_threads > 0 and records the determinism mode.
/// Idempotent; called by the pipeline entry points and the experiment
/// harness.
void ApplyParallelConfig(const ParallelConfig& config);

/// Result of running the pipeline on one dataset.
struct PipelineResult {
  linalg::Matrix hidden_features;           ///< n x num_hidden
  voting::LocalSupervision supervision;     ///< empty for plain models
  std::unique_ptr<rbm::RbmBase> model;      ///< the trained encoder
  double final_reconstruction_error = 0;
};

/// Trains the configured encoder on `x` and extracts hidden features.
/// For sls models the supervision is computed from `x` itself (fully
/// unsupervised). Deterministic given `seed`. Invalid configurations
/// (empty data, bad hyper-parameters, unresolvable voters) and training
/// that diverges (a learning rate too large for the data) return non-OK
/// Status instead of aborting.
StatusOr<PipelineResult> TryRunEncoderPipeline(const linalg::Matrix& x,
                                               const PipelineConfig& config,
                                               std::uint64_t seed);

/// The training half of TryRunEncoderPipeline (which runs it on a
/// MatrixTrainingSource), gathering minibatches through `source` — the
/// out-of-core entry point. Bit-identical to the materialized run with the
/// same rows: the trainer streams double-buffered batches, so peak
/// residency is a couple of minibatches, not the dataset. Features that
/// need every row at once degrade explicitly: sls supervision and PCA
/// weight init require source.DenseView() (kInvalidArgument otherwise),
/// and PipelineResult::hidden_features stays empty — stream transforms
/// chunk-by-chunk instead (row-sliced GEMM is bit-identical to the full
/// pass).
StatusOr<PipelineResult> TryRunEncoderPipelineFromSource(
    const rbm::TrainingDataSource& source, const PipelineConfig& config,
    std::uint64_t seed);

}  // namespace mcirbm::core

#endif  // MCIRBM_CORE_PIPELINE_H_
