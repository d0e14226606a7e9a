// api::Model — the versioned, unified encoder artifact.
//
// One type covers the whole model lifecycle through the facade:
//
//   auto model = api::Model::Train(x, config, seed);      // StatusOr
//   model.value().Save("encoder.mcirbm");
//   auto restored = api::Model::Load("encoder.mcirbm");
//   auto features = restored.value().Transform(x);        // bit-identical
//   auto scores = restored.value().Evaluate(x, labels, {"kmeans"});
//
// A model is an ordered list of layers: one for the encoders Train
// builds, several for a greedy stack (core::StackedEncoder, wrapped by
// FromStack). Transform runs them bottom-up. The one on-disk format
// ("mcirbm-model v1") is a header, then one payload per layer:
//
//   mcirbm-model v1
//   kind: <kind of layer 0>[,<kind of layer 1>,...]
//   <rbm/serialize.h payload of layer 0>
//   <payload of layer 1> ...
//
// Each kind is a model name (ModelKindRegistryName below), and the kind
// list fixes the layer count, so a file cut at a layer boundary does not
// load as a shorter stack. Bare "mcirbm-rbm v1" payloads, unsupported
// versions, unknown kinds, truncated payloads, and layers whose widths do
// not chain all surface as non-OK Status, never as aborts.
#ifndef MCIRBM_API_MODEL_H_
#define MCIRBM_API_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/stacked.h"
#include "data/source.h"
#include "linalg/matrix.h"
#include "metrics/external.h"
#include "rbm/rbm_base.h"
#include "util/status.h"

namespace mcirbm::api {

/// The name of a ModelKind: "rbm", "grbm", "sls-rbm" or "sls-grbm". It is
/// the artifact's `kind:` entry, the `model` config key's value and the
/// CLI's --model value.
const char* ModelKindRegistryName(core::ModelKind kind);

/// The ModelKind named `name`; NotFound for any other name.
StatusOr<core::ModelKind> ModelKindFromName(const std::string& name);

/// Every model name, '|'-separated, in ModelKind order.
std::string ModelNames();

/// The api::Model wrapper magic line ("mcirbm-model v1").
extern const char kModelMagic[];
/// Format version written by Save; Load rejects anything newer.
inline constexpr int kModelFormatVersion = 1;

/// Options for Model::Evaluate.
struct EvalOptions {
  std::string clusterer = "kmeans";  ///< ClustererRegistry name
  int k = 0;                         ///< cluster count; 0 = #distinct labels
  std::uint64_t seed = 7;
};

/// Outcome of Model::Evaluate: the paper's external metrics plus the
/// cluster count the algorithm actually produced.
struct EvalResult {
  metrics::MetricBundle metrics;
  int clusters_found = 0;
};

/// Clusters pre-computed features with the named clusterer and scores the
/// assignment against `labels`. This is exactly the post-transform half of
/// Model::Evaluate, exposed so batch-serving callers that already hold a
/// feature slice score it through the identical code path (same registry
/// lookup, same seed handling, same metrics).
StatusOr<EvalResult> EvaluateFeatures(const linalg::Matrix& features,
                                      const std::vector<int>& labels,
                                      const EvalOptions& options = {});

/// A trained (or loaded) encoder with unified persistence and inference.
/// Move-only; a default-constructed Model is empty until assigned from
/// Train, FromStack or Load.
///
/// Thread safety: every const member is safe to call concurrently from
/// any number of threads on one instance. Transform and Evaluate read the
/// immutable parameter blocks (weights, biases) and keep all per-call
/// state on the stack; the parallel kernels they invoke (linalg::Gemm et
/// al.) may be entered concurrently from multiple external threads — the
/// global parallel::ThreadPool serializes region scheduling internally.
/// Nothing in the inference path mutates the model, so a single instance
/// can back many concurrent batches (the serve::ModelStore relies on
/// this). Move-assignment must be externally synchronized, as usual.
class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Trains the configured encoder on `x` through the core pipeline.
  /// Invalid configurations come back as non-OK Status.
  static StatusOr<Model> Train(const linalg::Matrix& x,
                               const core::PipelineConfig& config,
                               std::uint64_t seed);

  /// Trains by streaming minibatches from `source` — the out-of-core
  /// path. Requires random row access (mmap/in-memory backends; convert
  /// text formats with `mcirbm_cli dataset convert`). Bit-identical to
  /// Train on the materialized rows at any thread count, in both
  /// determinism modes. Sls models and PCA init need the matrix resident
  /// and fail with kInvalidArgument on non-dense sources.
  static StatusOr<Model> TrainFromSource(const data::DataSource& source,
                                         const core::PipelineConfig& config,
                                         std::uint64_t seed);

  /// Takes over the layers of a trained stack; InvalidArgument for an
  /// untrained one. The kind lists each layer's configured model.
  static StatusOr<Model> FromStack(core::StackedEncoder stack);

  /// Restores a model saved by Save.
  static StatusOr<Model> Load(const std::string& path);

  /// Load with shared ownership: the artifact is immutable after loading,
  /// so long-lived services (serve::ModelStore) hand the same instance to
  /// many concurrent readers and retire it only when the last batch in
  /// flight releases its reference.
  static StatusOr<std::shared_ptr<const Model>> LoadShared(
      const std::string& path);

  /// Writes the versioned artifact, one payload per layer. IoError when
  /// any byte fails to reach the file.
  Status Save(const std::string& path) const;

  /// Top-layer features for the rows of `x`; InvalidArgument when `x`'s
  /// width does not match the bottom layer's visible width.
  StatusOr<linalg::Matrix> Transform(const linalg::Matrix& x) const;

  /// Transforms `x`, clusters the features with the named clusterer, and
  /// scores the assignment against `labels`.
  StatusOr<EvalResult> Evaluate(const linalg::Matrix& x,
                                const std::vector<int>& labels,
                                const EvalOptions& options = {}) const;

  /// False for a default-constructed (empty) model.
  bool valid() const { return !layers_.empty(); }

  /// Name of each layer's kind, comma-separated ("sls-grbm";
  /// "sls-grbm,sls-rbm" for a two-layer stack).
  const std::string& kind() const { return kind_; }

  /// Input width of the bottom layer and output width of the top layer;
  /// 0 if empty.
  std::size_t num_visible() const;
  std::size_t num_hidden() const;
  std::size_t num_layers() const { return layers_.size(); }
  /// Layer `i`, bottom-up; requires i < num_layers().
  const rbm::RbmBase& layer(std::size_t i) const;

  // Training telemetry — meaningful only for models produced by Train.
  const voting::LocalSupervision& supervision() const {
    return supervision_;
  }
  double final_reconstruction_error() const {
    return final_reconstruction_error_;
  }

 private:
  // Wraps the encoder of a finished pipeline run as a one-layer model.
  static StatusOr<Model> FromPipeline(StatusOr<core::PipelineResult> result,
                                      core::ModelKind kind);

  std::string kind_;
  std::vector<std::unique_ptr<rbm::RbmBase>> layers_;
  voting::LocalSupervision supervision_;
  double final_reconstruction_error_ = 0;
};

}  // namespace mcirbm::api

#endif  // MCIRBM_API_MODEL_H_
