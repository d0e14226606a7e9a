// Text configuration for the facade: key=value parsing shared by the CLI
// (`--config file`, the one-shot `pipeline` subcommand) and library
// callers.
//
// Syntax: one `key = value` pair per line ('=' optional whitespace), '#'
// starts a comment, blank lines ignored. Unknown keys, malformed values,
// and inconsistent combinations are rejected with non-OK Status naming the
// offending line.
//
// Pipeline keys (ParseConfig):
//   model                       rbm | grbm | sls-rbm | sls-grbm
//   rbm.hidden rbm.epochs rbm.learning_rate rbm.batch_size rbm.cd_k
//   rbm.momentum rbm.momentum_final rbm.momentum_switch_epoch
//   rbm.weight_decay rbm.init_weight_stddev rbm.sample_hidden
//   rbm.persistent_cd rbm.pcd_chains rbm.sparsity_target rbm.sparsity_cost
//   rbm.weight_init (gaussian|pca) rbm.seed
//   sls.eta sls.supervision_scale sls.include_recon_term
//   sls.include_disperse_term sls.disperse_weight sls.normalize_by_pairs
//   sls.max_grad_norm
//   supervision.clusters supervision.strategy (unanimous|majority)
//   supervision.min_cluster_size supervision.voters (e.g. "dp,kmeans*3,ap")
//   parallel.threads parallel.deterministic
//
// Additional run keys (ParsePipelineSpec):
//   data (required; loader spec: path | csv:p | bin:p | libsvm:p |
//     synth:fam:i[:seed])
//   data.max_resident_rows (out-of-core chunk/memory bound; 0 = in-RAM)
//   data.max_instances data.transform (auto|none|standardize|minmax|binarize)
//   eval.clusterer (registry name or "none") eval.k
//   out.model out.features seed
//
// rbm.batch_size, supervision.clusters, parallel.threads, eval.k and the
// two data.max_* keys take 0 for "use the default"; negative values are
// rejected.
#ifndef MCIRBM_API_CONFIG_H_
#define MCIRBM_API_CONFIG_H_

#include <cstdint>
#include <string>

#include "api/model.h"
#include "core/pipeline.h"
#include "metrics/external.h"
#include "util/status.h"

namespace mcirbm::api {

/// Parses pipeline keys over `base` (later lines win). Unknown keys and
/// malformed values are rejected.
StatusOr<core::PipelineConfig> ParseConfig(const std::string& text,
                                           core::PipelineConfig base = {});

/// The base config of a `kind` run: the paper's hyper-parameters for its
/// family (eval::MakePaperConfig), with supervision.clusters 0 = "the
/// dataset's class count". ParsePipelineSpec and the CLI's `train` parse
/// their keys over it.
core::PipelineConfig PaperPipelineConfig(core::ModelKind kind);

/// A fully resolved one-shot pipeline run: dataset source, preprocessing,
/// encoder configuration, outputs, and evaluation settings.
struct PipelineSpec {
  core::PipelineConfig config;

  /// Dataset source: a data::DataLoaderRegistry spec (any path or
  /// scheme:rest form, e.g. synth:<family>:<index>).
  std::string data_spec;
  /// If > 0, the run is out-of-core: training streams minibatches from
  /// the source and transforms/export run chunk-by-chunk with at most
  /// this many source rows resident. Requires transform=none,
  /// eval.clusterer=none, max_instances=0, and a random-access source
  /// (binary/mmap or in-memory). Results are bit-identical to the
  /// materialized run.
  std::size_t max_resident_rows = 0;
  /// If > 0, stratified-subsample to this many instances first.
  std::size_t max_instances = 0;
  /// auto = standardize for the GRBM family, min-max scale for the RBM
  /// family (the paper's per-family preprocessing).
  std::string transform = "auto";

  std::string model_out;     ///< save the trained model here (optional)
  std::string features_out;  ///< save hidden features as CSV (optional)

  std::string eval_clusterer = "kmeans";  ///< ClustererRegistry name
  int eval_k = 0;                         ///< 0 = dataset class count
  std::uint64_t seed = 7;
};

/// Parses a full run spec. The `model` key (default sls-grbm) selects the
/// PaperPipelineConfig base; every other key then overrides that base.
StatusOr<PipelineSpec> ParsePipelineSpec(const std::string& text);

/// ParsePipelineSpec over the contents of `path`.
StatusOr<PipelineSpec> ParsePipelineSpecFile(const std::string& path);

/// Everything the one-shot run produces.
struct PipelineRunSummary {
  std::string dataset_name;
  std::size_t instances = 0;
  std::size_t features = 0;
  double supervision_coverage = 0;
  int supervision_clusters = 0;
  double reconstruction_error = 0;
  int eval_k = 0;
  metrics::MetricBundle raw_metrics;     ///< clusterer on the input data
  metrics::MetricBundle hidden_metrics;  ///< clusterer on hidden features
  Model model;                           ///< the trained encoder
};

/// Runs the full pipeline described by `spec`: load/synthesize data,
/// preprocess, train through Model::Train, optionally persist model and
/// features, evaluate raw vs hidden representations.
StatusOr<PipelineRunSummary> RunPipeline(const PipelineSpec& spec);

}  // namespace mcirbm::api

#endif  // MCIRBM_API_CONFIG_H_
