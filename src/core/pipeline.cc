#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "clustering/registry.h"
#include "parallel/thread_pool.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace mcirbm::core {

StatusOr<std::vector<VoterSpec>> ParseVoterList(const std::string& text) {
  std::vector<VoterSpec> specs;
  for (const std::string& part : Split(text, ',')) {
    const std::string entry = Trim(part);
    if (entry.empty()) continue;
    VoterSpec spec;
    const std::size_t star = entry.find('*');
    if (star == std::string::npos) {
      spec.clusterer = entry;
    } else {
      spec.clusterer = Trim(entry.substr(0, star));
      if (!ParseInt(Trim(entry.substr(star + 1)), &spec.count)) {
        return Status::ParseError("voter '" + entry +
                                  "': count must be an integer");
      }
      if (spec.count <= 0) {
        return Status::InvalidArgument("voter '" + entry +
                                       "': count must be positive");
      }
    }
    if (!clustering::ClustererRegistry::Global().Contains(spec.clusterer)) {
      return Status::NotFound("unknown voter clusterer '" + spec.clusterer +
                              "'");
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    return Status::InvalidArgument("voter list '" + text +
                                   "' resolves to no voters");
  }
  return specs;
}

StatusOr<std::vector<VoterSpec>> ResolveVoterSpecs(
    const SupervisionConfig& config) {
  if (config.voters.empty()) {
    return Status::InvalidArgument(
        "at least one base clusterer must be enabled");
  }
  for (const VoterSpec& spec : config.voters) {
    if (spec.count <= 0) {
      return Status::InvalidArgument("voter '" + spec.clusterer +
                                     "': count must be positive");
    }
  }
  return config.voters;
}

StatusOr<voting::LocalSupervision> TryComputeSelfLearningSupervision(
    const linalg::Matrix& x, const SupervisionConfig& config,
    std::uint64_t seed) {
  if (config.num_clusters <= 0) {
    return Status::InvalidArgument("supervision num_clusters must be > 0");
  }
  auto specs_or = ResolveVoterSpecs(config);
  if (!specs_or.ok()) return specs_or.status();
  const std::vector<VoterSpec> specs = std::move(specs_or).value();

  // Build and validate every voter before the first one runs, so a bad
  // spec fails before any clustering work starts.
  std::vector<std::unique_ptr<clustering::Clusterer>> clusterers;
  for (const VoterSpec& spec : specs) {
    ParamMap params = spec.params;
    if (!params.Has("k")) {
      params.Set("k", std::to_string(config.num_clusters));
    }
    auto clusterer_or =
        clustering::ClustererRegistry::Global().Create(spec.clusterer,
                                                       params);
    if (!clusterer_or.ok()) return clusterer_or.status();
    int k = 0;
    MCIRBM_ASSIGN_OR_RETURN(k, params.GetInt("k", k));
    const Status rows_ok = clustering::CheckClusterCount(
        "voter '" + spec.clusterer + "'", k, x.rows());
    if (!rows_ok.ok()) return rows_ok;
    clusterers.push_back(std::move(clusterer_or).value());
  }

  // Run the voters in spec order, one after another, each with the whole
  // pool; repeat v of a spec runs with seed + v·7919.
  std::vector<std::vector<int>> partitions;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (int v = 0; v < specs[s].count; ++v) {
      const std::uint64_t voter_seed =
          seed + static_cast<std::uint64_t>(v) * 7919ULL;
      partitions.push_back(clusterers[s]->Cluster(x, voter_seed).assignment);
    }
  }

  voting::LocalSupervision sup = voting::IntegratePartitions(
      partitions, config.strategy, config.min_cluster_size);
  MCIRBM_LOG(kInfo) << "self-learning supervision: " << sup.num_clusters
                    << " credible clusters, coverage " << sup.Coverage();
  return sup;
}

void ApplyParallelConfig(const ParallelConfig& config) {
  if (config.num_threads > 0 &&
      config.num_threads != parallel::NumThreads() &&
      !parallel::InParallelRegion()) {
    parallel::SetNumThreads(config.num_threads);
  }
  parallel::SetDeterministic(config.deterministic);
}

std::unique_ptr<rbm::RbmBase> MakeEncoder(
    ModelKind kind, const rbm::RbmConfig& rbm_config, const SlsConfig& sls,
    const voting::LocalSupervision& supervision) {
  switch (kind) {
    case ModelKind::kRbm:
      return std::make_unique<rbm::Rbm>(rbm_config);
    case ModelKind::kGrbm:
      return std::make_unique<rbm::Grbm>(rbm_config);
    case ModelKind::kSlsRbm:
      return std::make_unique<SlsRbm>(rbm_config, sls, supervision);
    case ModelKind::kSlsGrbm:
      return std::make_unique<SlsGrbm>(rbm_config, sls, supervision);
  }
  return nullptr;
}

namespace {

// Shape/hyper-parameter validation shared by the materialized and
// streaming pipeline entry points.
Status ValidatePipelineInput(std::size_t rows, std::size_t cols,
                             const PipelineConfig& config) {
  if (rows == 0 || cols == 0) {
    return Status::InvalidArgument("pipeline input matrix is empty");
  }
  if (config.rbm.num_hidden <= 0) {
    return Status::InvalidArgument("rbm num_hidden must be positive");
  }
  if (config.rbm.epochs < 0) {
    return Status::InvalidArgument("rbm epochs must be non-negative");
  }
  if (config.rbm.cd_k < 1) {
    return Status::InvalidArgument("rbm cd_k must be >= 1");
  }
  if (!(config.rbm.learning_rate > 0) ||
      !std::isfinite(config.rbm.learning_rate)) {
    return Status::InvalidArgument("rbm learning_rate must be positive");
  }
  if (config.rbm.num_visible != 0 &&
      static_cast<std::size_t>(config.rbm.num_visible) != cols) {
    return Status::InvalidArgument(
        "rbm num_visible (" + std::to_string(config.rbm.num_visible) +
        ") does not match data columns (" + std::to_string(cols) + ")");
  }
  const bool is_sls = config.model == ModelKind::kSlsRbm ||
                      config.model == ModelKind::kSlsGrbm;
  if (is_sls && !(config.sls.eta > 0 && config.sls.eta < 1)) {
    return Status::InvalidArgument("sls eta must be in (0, 1)");
  }
  if (is_sls && config.sls.supervision_scale < 0) {
    return Status::InvalidArgument("sls scale must be non-negative");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<PipelineResult> TryRunEncoderPipelineFromSource(
    const rbm::TrainingDataSource& source, const PipelineConfig& config,
    std::uint64_t seed) {
  const Status valid =
      ValidatePipelineInput(source.rows(), source.cols(), config);
  if (!valid.ok()) return valid;
  const bool is_sls = config.model == ModelKind::kSlsRbm ||
                      config.model == ModelKind::kSlsGrbm;

  ApplyParallelConfig(config.parallel);
  rbm::RbmConfig rbm_config = config.rbm;
  if (rbm_config.num_visible == 0) {
    rbm_config.num_visible = static_cast<int>(source.cols());
  }
  rbm_config.seed = rbm_config.seed ^ seed;

  PipelineResult result;
  if (is_sls) {
    // The supervision ensemble clusters every row at once (distance
    // matrices, O(n^2)); it cannot stream. Sls training therefore needs
    // the matrix resident — plain rbm/grbm train fully out of core.
    const linalg::Matrix* dense = source.DenseView();
    if (dense == nullptr) {
      return Status::InvalidArgument(
          "sls models need the training matrix in memory for the "
          "supervision ensemble; train a plain rbm/grbm out of core or "
          "materialize the source");
    }
    auto sup =
        TryComputeSelfLearningSupervision(*dense, config.supervision, seed);
    if (!sup.ok()) return sup.status();
    result.supervision = std::move(sup).value();
  }

  result.model =
      MakeEncoder(config.model, rbm_config, config.sls, result.supervision);

  auto history_or = result.model->TrainFromSource(source);
  if (!history_or.ok()) return history_or.status();
  const std::vector<rbm::EpochStats>& history = history_or.value();
  if (!history.empty()) {
    result.final_reconstruction_error =
        history.back().reconstruction_error;
  } else if (const linalg::Matrix* dense = source.DenseView()) {
    result.final_reconstruction_error =
        result.model->ReconstructionError(*dense);
  } else {
    // Zero-epoch run: stream the reconstruction error in row blocks.
    // (Block-mean accumulation, not element-shard order — only this
    // untrained edge case differs from the materialized path in FP
    // ordering.)
    constexpr std::size_t kBlockRows = 4096;
    double weighted = 0;
    for (std::size_t begin = 0; begin < source.rows();
         begin += kBlockRows) {
      const std::size_t end =
          std::min(begin + kBlockRows, source.rows());
      std::vector<std::size_t> indices(end - begin);
      for (std::size_t i = begin; i < end; ++i) indices[i - begin] = i;
      linalg::Matrix block;
      const Status status = source.GatherRows(indices, &block);
      if (!status.ok()) return status;
      weighted += result.model->ReconstructionError(block) *
                  static_cast<double>(end - begin);
    }
    result.final_reconstruction_error =
        weighted / static_cast<double>(source.rows());
  }
  // hidden_features stays empty: out-of-core callers stream transforms.
  return result;
}

StatusOr<PipelineResult> TryRunEncoderPipeline(const linalg::Matrix& x,
                                               const PipelineConfig& config,
                                               std::uint64_t seed) {
  auto trained = TryRunEncoderPipelineFromSource(
      rbm::MatrixTrainingSource(x), config, seed);
  if (!trained.ok()) return trained.status();
  PipelineResult result = std::move(trained).value();
  result.hidden_features = result.model->HiddenFeatures(x);
  return result;
}

}  // namespace mcirbm::core
