#include "api/config.h"

#include <utility>
#include <vector>

#include <algorithm>

#include "clustering/registry.h"
#include "data/io.h"
#include "data/loaders.h"
#include "data/source.h"
#include "data/transforms.h"
#include "eval/experiment.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace mcirbm::api {
namespace {

// One key=value line with its 1-based source line for diagnostics.
struct ConfigEntry {
  std::string key;
  std::string value;
  int line = 0;
};

Status AtLine(int line, const Status& status) {
  return Status(status.code(),
                "line " + std::to_string(line) + ": " + status.message());
}

// Splits config text into entries; rejects lines without '='.
StatusOr<std::vector<ConfigEntry>> Tokenize(const std::string& text) {
  std::vector<ConfigEntry> entries;
  int line_number = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string line = raw_line;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("line " + std::to_string(line_number) +
                                ": expected key = value, got '" + line +
                                "'");
    }
    ConfigEntry entry;
    entry.key = Trim(line.substr(0, eq));
    entry.value = Trim(line.substr(eq + 1));
    entry.line = line_number;
    if (entry.key.empty()) {
      return Status::ParseError("line " + std::to_string(line_number) +
                                ": empty key");
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

// Typed value parsers reusing ParamMap's error reporting.
StatusOr<int> ValueAsInt(const ConfigEntry& e) {
  ParamMap one;
  one.Set(e.key, e.value);
  auto v = one.GetInt(e.key, 0);
  if (!v.ok()) return AtLine(e.line, v.status());
  return v.value();
}

// For the int keys whose 0 means "use the default": a negative value is an
// error, not a second spelling of that default.
StatusOr<int> ValueAsNonNegativeInt(const ConfigEntry& e) {
  int n = 0;
  MCIRBM_ASSIGN_OR_RETURN(n, ValueAsInt(e));
  if (n < 0) {
    return Status::InvalidArgument("line " + std::to_string(e.line) + ": " +
                                   e.key + " must be non-negative");
  }
  return n;
}

StatusOr<double> ValueAsDouble(const ConfigEntry& e) {
  ParamMap one;
  one.Set(e.key, e.value);
  auto v = one.GetDouble(e.key, 0);
  if (!v.ok()) return AtLine(e.line, v.status());
  return v.value();
}

StatusOr<bool> ValueAsBool(const ConfigEntry& e) {
  ParamMap one;
  one.Set(e.key, e.value);
  auto v = one.GetBool(e.key, false);
  if (!v.ok()) return AtLine(e.line, v.status());
  return v.value();
}

// Applies one pipeline key to `config`. NotFound for keys outside the
// pipeline vocabulary so callers layering extra keys (ParsePipelineSpec)
// can distinguish "not mine" from "mine but malformed".
Status ApplyConfigKey(const ConfigEntry& e, core::PipelineConfig* config) {
  const std::string& key = e.key;
  if (key == "model") {
    auto kind = ModelKindFromName(e.value);
    if (!kind.ok()) return AtLine(e.line, kind.status());
    config->model = kind.value();
  } else if (key == "rbm.hidden") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.num_hidden, ValueAsInt(e));
  } else if (key == "rbm.epochs") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.epochs, ValueAsInt(e));
  } else if (key == "rbm.learning_rate") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.learning_rate, ValueAsDouble(e));
  } else if (key == "rbm.batch_size") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.batch_size, ValueAsNonNegativeInt(e));
  } else if (key == "rbm.cd_k") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.cd_k, ValueAsInt(e));
  } else if (key == "rbm.momentum") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.momentum, ValueAsDouble(e));
  } else if (key == "rbm.momentum_final") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.momentum_final, ValueAsDouble(e));
  } else if (key == "rbm.momentum_switch_epoch") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.momentum_switch_epoch, ValueAsInt(e));
  } else if (key == "rbm.weight_decay") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.weight_decay, ValueAsDouble(e));
  } else if (key == "rbm.init_weight_stddev") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.init_weight_stddev, ValueAsDouble(e));
  } else if (key == "rbm.sample_hidden") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.sample_hidden_states, ValueAsBool(e));
  } else if (key == "rbm.persistent_cd") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.use_persistent_cd, ValueAsBool(e));
  } else if (key == "rbm.pcd_chains") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.pcd_chains, ValueAsInt(e));
  } else if (key == "rbm.sparsity_target") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.sparsity_target, ValueAsDouble(e));
  } else if (key == "rbm.sparsity_cost") {
    MCIRBM_ASSIGN_OR_RETURN(config->rbm.sparsity_cost, ValueAsDouble(e));
  } else if (key == "rbm.weight_init") {
    if (e.value == "gaussian") {
      config->rbm.weight_init = rbm::RbmConfig::WeightInit::kGaussian;
    } else if (e.value == "pca") {
      config->rbm.weight_init = rbm::RbmConfig::WeightInit::kPca;
    } else {
      return Status::ParseError("line " + std::to_string(e.line) +
                                ": rbm.weight_init must be gaussian|pca");
    }
  } else if (key == "rbm.seed") {
    int seed = 0;
    MCIRBM_ASSIGN_OR_RETURN(seed, ValueAsInt(e));
    config->rbm.seed = static_cast<std::uint64_t>(seed);
  } else if (key == "sls.eta") {
    MCIRBM_ASSIGN_OR_RETURN(config->sls.eta, ValueAsDouble(e));
  } else if (key == "sls.supervision_scale") {
    MCIRBM_ASSIGN_OR_RETURN(config->sls.supervision_scale, ValueAsDouble(e));
  } else if (key == "sls.include_recon_term") {
    MCIRBM_ASSIGN_OR_RETURN(config->sls.include_recon_term, ValueAsBool(e));
  } else if (key == "sls.include_disperse_term") {
    MCIRBM_ASSIGN_OR_RETURN(config->sls.include_disperse_term, ValueAsBool(e));
  } else if (key == "sls.disperse_weight") {
    MCIRBM_ASSIGN_OR_RETURN(config->sls.disperse_weight, ValueAsDouble(e));
  } else if (key == "sls.normalize_by_pairs") {
    MCIRBM_ASSIGN_OR_RETURN(config->sls.normalize_by_pairs, ValueAsBool(e));
  } else if (key == "sls.max_grad_norm") {
    MCIRBM_ASSIGN_OR_RETURN(config->sls.max_grad_norm, ValueAsDouble(e));
  } else if (key == "supervision.clusters") {
    MCIRBM_ASSIGN_OR_RETURN(config->supervision.num_clusters,
                            ValueAsNonNegativeInt(e));
  } else if (key == "supervision.strategy") {
    if (e.value == "unanimous") {
      config->supervision.strategy = voting::VoteStrategy::kUnanimous;
    } else if (e.value == "majority") {
      config->supervision.strategy = voting::VoteStrategy::kMajority;
    } else {
      return Status::ParseError(
          "line " + std::to_string(e.line) +
          ": supervision.strategy must be unanimous|majority");
    }
  } else if (key == "supervision.min_cluster_size") {
    MCIRBM_ASSIGN_OR_RETURN(config->supervision.min_cluster_size, ValueAsInt(e));
  } else if (key == "supervision.voters") {
    auto voters = core::ParseVoterList(e.value);
    if (!voters.ok()) return AtLine(e.line, voters.status());
    config->supervision.voters = std::move(voters).value();
  } else if (key == "parallel.threads") {
    MCIRBM_ASSIGN_OR_RETURN(config->parallel.num_threads,
                            ValueAsNonNegativeInt(e));
  } else if (key == "parallel.deterministic") {
    MCIRBM_ASSIGN_OR_RETURN(config->parallel.deterministic, ValueAsBool(e));
  } else {
    return Status::NotFound("line " + std::to_string(e.line) +
                            ": unknown config key '" + key + "'");
  }
  return Status::Ok();
}

// Applies one run-spec key (data/eval/out/seed); NotFound when the key is
// not part of the spec vocabulary.
Status ApplySpecKey(const ConfigEntry& e, PipelineSpec* spec) {
  const std::string& key = e.key;
  if (key == "data") {
    spec->data_spec = e.value;
  } else if (key == "data.max_resident_rows") {
    MCIRBM_ASSIGN_OR_RETURN(spec->max_resident_rows, ValueAsNonNegativeInt(e));
  } else if (key == "data.max_instances") {
    MCIRBM_ASSIGN_OR_RETURN(spec->max_instances, ValueAsNonNegativeInt(e));
  } else if (key == "data.transform") {
    if (e.value != "auto" && e.value != "none" && e.value != "standardize" &&
        e.value != "minmax" && e.value != "binarize") {
      return Status::ParseError(
          "line " + std::to_string(e.line) +
          ": data.transform must be auto|none|standardize|minmax|binarize");
    }
    spec->transform = e.value;
  } else if (key == "eval.clusterer") {
    // "none" skips the evaluation stage (required for out-of-core runs,
    // where clustering would materialize every instance).
    if (e.value != "none" &&
        !clustering::ClustererRegistry::Global().Contains(e.value)) {
      return Status::NotFound("line " + std::to_string(e.line) +
                              ": unknown eval.clusterer '" + e.value + "'");
    }
    spec->eval_clusterer = e.value;
  } else if (key == "eval.k") {
    MCIRBM_ASSIGN_OR_RETURN(spec->eval_k, ValueAsNonNegativeInt(e));
  } else if (key == "out.model") {
    spec->model_out = e.value;
  } else if (key == "out.features") {
    spec->features_out = e.value;
  } else if (key == "seed") {
    int seed = 0;
    MCIRBM_ASSIGN_OR_RETURN(seed, ValueAsInt(e));
    spec->seed = static_cast<std::uint64_t>(seed);
  } else {
    return Status::NotFound("spec key '" + key + "' not recognized");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<core::PipelineConfig> ParseConfig(const std::string& text,
                                           core::PipelineConfig base) {
  auto entries = Tokenize(text);
  if (!entries.ok()) return entries.status();
  for (const ConfigEntry& e : entries.value()) {
    const Status status = ApplyConfigKey(e, &base);
    if (!status.ok()) return status;
  }
  return base;
}

core::PipelineConfig PaperPipelineConfig(core::ModelKind kind) {
  const bool grbm_family = kind == core::ModelKind::kGrbm ||
                           kind == core::ModelKind::kSlsGrbm;
  const eval::ExperimentConfig paper = eval::MakePaperConfig(grbm_family);
  core::PipelineConfig config;
  config.model = kind;
  config.rbm = paper.rbm;
  config.sls = paper.sls;
  config.supervision = paper.supervision;
  config.supervision.num_clusters = 0;
  return config;
}

StatusOr<PipelineSpec> ParsePipelineSpec(const std::string& text) {
  auto entries_or = Tokenize(text);
  if (!entries_or.ok()) return entries_or.status();
  const std::vector<ConfigEntry> entries = std::move(entries_or).value();

  // The model choice decides which paper family's hyper-parameters seed
  // the base config, so resolve it before applying any other key.
  core::ModelKind kind = core::ModelKind::kSlsGrbm;
  for (const ConfigEntry& e : entries) {
    if (e.key != "model") continue;
    auto parsed = ModelKindFromName(e.value);
    if (!parsed.ok()) return AtLine(e.line, parsed.status());
    kind = parsed.value();
  }
  PipelineSpec spec;
  spec.config = PaperPipelineConfig(kind);

  for (const ConfigEntry& e : entries) {
    Status status = ApplySpecKey(e, &spec);
    if (status.ok()) continue;
    if (status.code() != StatusCode::kNotFound) return status;
    status = ApplyConfigKey(e, &spec.config);
    if (!status.ok()) return status;
  }

  if (spec.data_spec.empty()) {
    return Status::InvalidArgument("config must set data");
  }
  return spec;
}

StatusOr<PipelineSpec> ParsePipelineSpecFile(const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParsePipelineSpec(text.value());
}

namespace {

// The out-of-core run: training streams minibatches from the source and
// the feature export streams chunk-by-chunk through the same CsvWriter
// byte format as SaveDatasetCsv, so at most max_resident_rows source rows
// (plus a couple of minibatches) are ever resident. Stages that need the
// full matrix at once are rejected up front rather than silently
// materializing.
StatusOr<PipelineRunSummary> RunPipelineOutOfCore(const PipelineSpec& spec) {
  if (spec.max_instances > 0) {
    return Status::InvalidArgument(
        "data.max_instances requires a materialized run; drop it or set "
        "data.max_resident_rows = 0");
  }
  if (spec.transform != "none") {
    return Status::InvalidArgument(
        "out-of-core runs need data.transform = none: global column "
        "statistics would require materializing the dataset (got '" +
        spec.transform + "')");
  }
  if (spec.eval_clusterer != "none") {
    return Status::InvalidArgument(
        "out-of-core runs need eval.clusterer = none: clustering "
        "materializes every instance (got '" + spec.eval_clusterer + "')");
  }

  data::DataSourceConfig source_config;
  source_config.max_resident_rows = spec.max_resident_rows;
  source_config.synth_seed = spec.seed;
  auto source_or = data::OpenDataSource(spec.data_spec, source_config);
  if (!source_or.ok()) return source_or.status();
  data::DataSource& source = *source_or.value();

  core::PipelineConfig config = spec.config;
  if (config.supervision.num_clusters <= 0) {
    config.supervision.num_clusters = source.num_classes();
  }
  auto model_or = Model::TrainFromSource(source, config, spec.seed);
  if (!model_or.ok()) return model_or.status();

  PipelineRunSummary summary;
  summary.model = std::move(model_or).value();
  summary.dataset_name = source.name();
  summary.instances = source.rows();
  summary.features = source.cols();
  summary.supervision_coverage = summary.model.supervision().Coverage();
  summary.supervision_clusters = summary.model.supervision().num_clusters;
  summary.reconstruction_error = summary.model.final_reconstruction_error();
  summary.eval_k = spec.eval_k > 0 ? spec.eval_k : source.num_classes();

  if (!spec.model_out.empty()) {
    const Status status = summary.model.Save(spec.model_out);
    if (!status.ok()) return status;
  }
  if (!spec.features_out.empty()) {
    // Same header and cell formatting as SaveDatasetCsv, and row-sliced
    // Transform is bit-identical to the full pass, so this file is
    // byte-for-byte the materialized export.
    std::vector<std::string> header;
    header.reserve(summary.model.num_hidden() + 1);
    for (std::size_t j = 0; j < summary.model.num_hidden(); ++j) {
      header.push_back("f" + std::to_string(j));
    }
    header.push_back("label");
    CsvWriter writer;
    Status status = writer.Open(spec.features_out, header);
    if (!status.ok()) return status;
    std::vector<double> row;
    status = source.ForEachChunk([&](const data::ChunkSpec& chunk) {
      linalg::Matrix block(chunk.rows, chunk.cols);
      std::copy(chunk.x, chunk.x + chunk.rows * chunk.cols, block.data());
      auto hidden = summary.model.Transform(block);
      if (!hidden.ok()) return hidden.status();
      const linalg::Matrix& h = hidden.value();
      row.resize(h.cols() + 1);
      for (std::size_t i = 0; i < h.rows(); ++i) {
        std::copy(h.data() + i * h.cols(), h.data() + (i + 1) * h.cols(),
                  row.begin());
        row.back() = static_cast<double>(chunk.labels[i]);
        const Status written = writer.WriteRow(row);
        if (!written.ok()) return written;
      }
      return Status::Ok();
    });
    if (!status.ok()) return status;
    status = writer.Close();
    if (!status.ok()) return status;
  }
  return summary;
}

}  // namespace

StatusOr<PipelineRunSummary> RunPipeline(const PipelineSpec& spec) {
  if (spec.max_resident_rows > 0) return RunPipelineOutOfCore(spec);

  // 1. Dataset — any registered loader spec; synth sources see the run
  // seed.
  data::DataSourceConfig source_config;
  source_config.synth_seed = spec.seed;
  auto loaded = data::LoadDataset(spec.data_spec, source_config);
  if (!loaded.ok()) return loaded.status();
  data::Dataset dataset = std::move(loaded).value();
  if (spec.max_instances > 0) {
    dataset = data::StratifiedSubsample(dataset, spec.max_instances,
                                        spec.seed ^ 0x73756273ULL);
  }
  // The evaluation's k is checked here, before training, so a k above the
  // row count fails before any model or features are written.
  const int eval_k = spec.eval_k > 0 ? spec.eval_k : dataset.num_classes;
  if (spec.eval_clusterer != "none") {
    const Status k_ok = clustering::CheckClusterCount(
        "eval clusterer '" + spec.eval_clusterer + "'", eval_k,
        dataset.num_instances());
    if (!k_ok.ok()) return k_ok;
  }

  // 2. Preprocessing (paper per-family defaults under "auto").
  const bool grbm_family = spec.config.model == core::ModelKind::kGrbm ||
                           spec.config.model == core::ModelKind::kSlsGrbm;
  linalg::Matrix x = dataset.x;
  std::string transform = spec.transform;
  if (transform == "auto") {
    transform = grbm_family ? "standardize" : "minmax";
  }
  const Status transformed = data::ApplyTransform(transform, &x);
  if (!transformed.ok()) return transformed;

  // 3. Train through the facade.
  core::PipelineConfig config = spec.config;
  if (config.supervision.num_clusters <= 0) {
    config.supervision.num_clusters = dataset.num_classes;
  }
  auto model_or = Model::Train(x, config, spec.seed);
  if (!model_or.ok()) return model_or.status();

  PipelineRunSummary summary;
  summary.model = std::move(model_or).value();
  summary.dataset_name = dataset.name;
  summary.instances = dataset.num_instances();
  summary.features = dataset.num_features();
  summary.supervision_coverage = summary.model.supervision().Coverage();
  summary.supervision_clusters = summary.model.supervision().num_clusters;
  summary.reconstruction_error = summary.model.final_reconstruction_error();

  // 4. Optional outputs.
  if (!spec.model_out.empty()) {
    const Status status = summary.model.Save(spec.model_out);
    if (!status.ok()) return status;
  }
  auto hidden = summary.model.Transform(x);
  if (!hidden.ok()) return hidden.status();
  if (!spec.features_out.empty()) {
    data::Dataset features = dataset;
    features.x = hidden.value();
    features.name = dataset.name + ":hidden";
    const Status status = data::SaveDatasetCsv(features, spec.features_out);
    if (!status.ok()) return status;
  }

  // 5. Evaluation: the named clusterer on raw vs hidden representations
  // ("none" skips it, leaving the metric bundles zero).
  summary.eval_k = eval_k;
  if (spec.eval_clusterer == "none") return summary;
  ParamMap params;
  params.Set("k", std::to_string(summary.eval_k));
  auto clusterer = clustering::ClustererRegistry::Global().Create(
      spec.eval_clusterer, params);
  if (!clusterer.ok()) return clusterer.status();
  const auto raw_clusters =
      clusterer.value()->Cluster(dataset.x, spec.seed);
  const auto hidden_clusters =
      clusterer.value()->Cluster(hidden.value(), spec.seed);
  summary.raw_metrics =
      metrics::ComputeAll(dataset.labels, raw_clusters.assignment);
  summary.hidden_metrics =
      metrics::ComputeAll(dataset.labels, hidden_clusters.assignment);
  return summary;
}

}  // namespace mcirbm::api
