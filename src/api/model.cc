#include "api/model.h"

#include <fstream>
#include <set>
#include <utility>

#include "clustering/registry.h"
#include "rbm/serialize.h"
#include "util/check.h"
#include "util/string_util.h"

namespace mcirbm::api {

const char kModelMagic[] = "mcirbm-model v1";

namespace {

// Bridges data::DataSource to the trainer's row-gather contract. Labels
// are dropped — training is unsupervised; the supervision stage (sls)
// reads them never, and evaluation loads them separately.
class DataSourceAdapter final : public rbm::TrainingDataSource {
 public:
  explicit DataSourceAdapter(const data::DataSource& source)
      : source_(source) {}

  std::size_t rows() const override { return source_.rows(); }
  std::size_t cols() const override { return source_.cols(); }

  Status GatherRows(const std::vector<std::size_t>& indices,
                    linalg::Matrix* out) const override {
    return source_.GatherRows(indices, out, nullptr);
  }

  const linalg::Matrix* DenseView() const override {
    const data::Dataset* dense = source_.DenseView();
    return dense != nullptr ? &dense->x : nullptr;
  }

 private:
  const data::DataSource& source_;
};

// Each ModelKind's name, in enum order.
constexpr std::pair<core::ModelKind, const char*> kKindNames[] = {
    {core::ModelKind::kRbm, "rbm"},
    {core::ModelKind::kGrbm, "grbm"},
    {core::ModelKind::kSlsRbm, "sls-rbm"},
    {core::ModelKind::kSlsGrbm, "sls-grbm"},
};

constexpr char kMagicPrefix[] = "mcirbm-model v";

// Parses "mcirbm-model v<N>" into N; ParseError for anything else.
StatusOr<int> ParseModelVersion(const std::string& line,
                                const std::string& path) {
  if (!StartsWith(line, kMagicPrefix)) {
    return Status::ParseError(path + ": bad model magic '" + line + "'");
  }
  const std::string version_text =
      line.substr(std::string(kMagicPrefix).size());
  // 6 digits bounds the accumulator well below INT_MAX; any real version
  // is a small integer, so longer strings are corruption.
  if (version_text.empty() || version_text.size() > 6) {
    return Status::ParseError(path + ": bad model version '" + line + "'");
  }
  int version = 0;
  for (char c : version_text) {
    if (c < '0' || c > '9') {
      return Status::ParseError(path + ": bad model version '" + line + "'");
    }
    version = version * 10 + (c - '0');
  }
  return version;
}

}  // namespace

const char* ModelKindRegistryName(core::ModelKind kind) {
  for (const auto& entry : kKindNames) {
    if (entry.first == kind) return entry.second;
  }
  return "?";
}

StatusOr<core::ModelKind> ModelKindFromName(const std::string& name) {
  for (const auto& entry : kKindNames) {
    if (name == entry.second) return entry.first;
  }
  return Status::NotFound("unknown model '" + name + "' (" +
                          ModelNames() + ")");
}

std::string ModelNames() {
  std::vector<std::string> names;
  for (const auto& entry : kKindNames) names.push_back(entry.second);
  return Join(names, "|");
}

StatusOr<Model> Model::FromPipeline(StatusOr<core::PipelineResult> result,
                                    core::ModelKind kind) {
  if (!result.ok()) return result.status();
  core::PipelineResult pipeline = std::move(result).value();
  Model model;
  model.kind_ = ModelKindRegistryName(kind);
  model.layers_.push_back(std::move(pipeline.model));
  model.supervision_ = std::move(pipeline.supervision);
  model.final_reconstruction_error_ = pipeline.final_reconstruction_error;
  return model;
}

StatusOr<Model> Model::Train(const linalg::Matrix& x,
                             const core::PipelineConfig& config,
                             std::uint64_t seed) {
  // The source form skips the pipeline's feature pass: a Model keeps only
  // the encoder, and callers that want features call Transform.
  return FromPipeline(core::TryRunEncoderPipelineFromSource(
                          rbm::MatrixTrainingSource(x), config, seed),
                      config.model);
}

StatusOr<Model> Model::TrainFromSource(const data::DataSource& source,
                                       const core::PipelineConfig& config,
                                       std::uint64_t seed) {
  if (!source.SupportsRandomAccess()) {
    return Status::InvalidArgument(
        "out-of-core training needs random row access; source '" +
        source.name() +
        "' is sequential — convert it with `mcirbm_cli dataset convert`");
  }
  const DataSourceAdapter adapter(source);
  return FromPipeline(
      core::TryRunEncoderPipelineFromSource(adapter, config, seed),
      config.model);
}

StatusOr<Model> Model::FromStack(core::StackedEncoder stack) {
  if (!stack.is_trained()) {
    return Status::InvalidArgument("stack has not been trained");
  }
  std::vector<std::string> kinds;
  for (std::size_t l = 0; l < stack.num_layers(); ++l) {
    kinds.push_back(ModelKindRegistryName(stack.layer_config(l).model));
  }
  Model model;
  model.kind_ = Join(kinds, ",");
  model.layers_ = std::move(stack).ReleaseLayers();
  return model;
}

Status Model::Save(const std::string& path) const {
  if (!valid()) return Status::InvalidArgument("cannot save an empty model");
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << kModelMagic << "\n" << "kind: " << kind_ << "\n";
  for (const auto& layer : layers_) {
    const Status status = rbm::SaveParameters(*layer, out);
    if (!status.ok()) {
      return Status::IoError(status.message() + " for " + path);
    }
  }
  // The buffered tail reaches the file only here; a full device fails now.
  out.close();
  if (!out) return Status::IoError("parameter write failed for " + path);
  return Status::Ok();
}

StatusOr<Model> Model::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::string first_line;
  if (!std::getline(in, first_line)) {
    return Status::ParseError(path + ": empty model file");
  }
  auto version = ParseModelVersion(first_line, path);
  if (!version.ok()) return version.status();
  if (version.value() > kModelFormatVersion) {
    return Status::InvalidArgument(
        path + ": model format v" + std::to_string(version.value()) +
        " is newer than this build supports (v" +
        std::to_string(kModelFormatVersion) + ")");
  }
  std::string kind_line;
  if (!std::getline(in, kind_line) || !StartsWith(kind_line, "kind: ")) {
    return Status::ParseError(path + ": missing 'kind:' header line");
  }
  Model model;
  model.kind_ = Trim(kind_line.substr(std::string("kind: ").size()));
  const std::vector<std::string> kinds = Split(model.kind_, ',');
  for (std::size_t l = 0; l < kinds.size(); ++l) {
    const auto kind = ModelKindFromName(kinds[l]);
    if (!kind.ok()) {
      return Status::ParseError(path + ": unknown model kind '" + kinds[l] +
                                "' in '" + kind_line + "'");
    }
    const std::string context =
        kinds.size() == 1 ? path : path + " layer " + std::to_string(l);
    // The previous payload ends right after its last W value; its line
    // break stands before the next payload's magic line.
    if (l > 0) in >> std::ws;
    auto layer = rbm::LoadInferenceModel(in, context);
    if (!layer.ok()) return layer.status();
    // The payload's stored name picks the reconstruction; it must be of
    // the family its 'kind:' entry names.
    const bool gaussian = kind.value() == core::ModelKind::kGrbm ||
                          kind.value() == core::ModelKind::kSlsGrbm;
    const std::string family = layer.value()->name();
    if (family != (gaussian ? "grbm" : "rbm")) {
      return Status::ParseError(context + ": payload family '" + family +
                                "' does not match kind '" + kinds[l] + "'");
    }
    if (l > 0 && layer.value()->weights().rows() !=
                     model.layers_.back()->weights().cols()) {
      return Status::ParseError(
          context + ": " + std::to_string(layer.value()->weights().rows()) +
          " visible units do not match the " +
          std::to_string(model.layers_.back()->weights().cols()) +
          " hidden units of layer " + std::to_string(l - 1));
    }
    model.layers_.push_back(std::move(layer).value());
  }
  in >> std::ws;
  if (!in.eof()) {
    return Status::ParseError(path + ": data after the " +
                              std::to_string(kinds.size()) +
                              " listed layer(s)");
  }
  return model;
}

StatusOr<std::shared_ptr<const Model>> Model::LoadShared(
    const std::string& path) {
  auto model = Load(path);
  if (!model.ok()) return model.status();
  return std::shared_ptr<const Model>(
      std::make_shared<Model>(std::move(model).value()));
}

StatusOr<linalg::Matrix> Model::Transform(const linalg::Matrix& x) const {
  if (!valid()) {
    return Status::InvalidArgument("cannot transform with an empty model");
  }
  if (x.rows() == 0) {
    return Status::InvalidArgument("transform input is empty");
  }
  if (x.cols() != num_visible()) {
    return Status::InvalidArgument(
        "transform input has " + std::to_string(x.cols()) +
        " features but the model expects " + std::to_string(num_visible()));
  }
  // Layer 0 reads `x` in place; a copy would cost a whole input matrix.
  linalg::Matrix features = layers_.front()->HiddenFeatures(x);
  for (std::size_t l = 1; l < layers_.size(); ++l) {
    features = layers_[l]->HiddenFeatures(features);
  }
  return features;
}

StatusOr<EvalResult> EvaluateFeatures(const linalg::Matrix& features,
                                      const std::vector<int>& labels,
                                      const EvalOptions& options) {
  if (labels.size() != features.rows()) {
    return Status::InvalidArgument(
        "labels length " + std::to_string(labels.size()) +
        " does not match " + std::to_string(features.rows()) + " instances");
  }
  int k = options.k;
  if (k <= 0) {
    k = static_cast<int>(
        std::set<int>(labels.begin(), labels.end()).size());
  }
  if (k <= 0) return Status::InvalidArgument("cannot infer cluster count");
  const Status k_ok = clustering::CheckClusterCount(
      "eval clusterer '" + options.clusterer + "'", k, features.rows());
  if (!k_ok.ok()) return k_ok;

  ParamMap params;
  params.Set("k", std::to_string(k));
  auto clusterer = clustering::ClustererRegistry::Global().Create(
      options.clusterer, params);
  if (!clusterer.ok()) return clusterer.status();

  const clustering::ClusteringResult clustering =
      clusterer.value()->Cluster(features, options.seed);
  EvalResult result;
  result.metrics = metrics::ComputeAll(labels, clustering.assignment);
  result.clusters_found = clustering.num_clusters;
  return result;
}

StatusOr<EvalResult> Model::Evaluate(const linalg::Matrix& x,
                                     const std::vector<int>& labels,
                                     const EvalOptions& options) const {
  auto features = Transform(x);
  if (!features.ok()) return features.status();
  // Transform preserves the row count, so EvaluateFeatures' label/row
  // check covers the input too.
  return EvaluateFeatures(features.value(), labels, options);
}

std::size_t Model::num_visible() const {
  return valid() ? layers_.front()->weights().rows() : 0;
}

std::size_t Model::num_hidden() const {
  return valid() ? layers_.back()->weights().cols() : 0;
}

const rbm::RbmBase& Model::layer(std::size_t i) const {
  MCIRBM_CHECK_LT(i, layers_.size());
  return *layers_[i];
}

}  // namespace mcirbm::api
