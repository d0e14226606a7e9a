#include "core/stacked.h"

#include <utility>

#include "util/check.h"
#include "util/logging.h"

namespace mcirbm::core {

StackedEncoder::StackedEncoder(std::vector<StackedLayerConfig> layers)
    : configs_(std::move(layers)) {
  MCIRBM_CHECK(!configs_.empty()) << "stack needs at least one layer";
}

std::vector<StackedLayerStats> StackedEncoder::Train(const linalg::Matrix& x,
                                                     std::uint64_t seed) {
  MCIRBM_CHECK_GT(x.rows(), 0u);
  models_.clear();
  std::vector<StackedLayerStats> stats(configs_.size());

  linalg::Matrix input = x;
  voting::LocalSupervision supervision;  // carried down-up when reused
  bool have_supervision = false;

  for (std::size_t l = 0; l < configs_.size(); ++l) {
    const StackedLayerConfig& layer = configs_[l];
    rbm::RbmConfig rbm_config = layer.rbm;
    if (rbm_config.num_visible == 0) {
      rbm_config.num_visible = static_cast<int>(input.cols());
    }
    // Independent per-layer parameter streams from one seed.
    rbm_config.seed = rbm_config.seed ^ (seed + 0x9e3779b97f4a7c15ULL * l);

    const bool is_sls = layer.model == ModelKind::kSlsRbm ||
                        layer.model == ModelKind::kSlsGrbm;
    if (is_sls) {
      if (layer.recompute_supervision || !have_supervision) {
        supervision = TryComputeSelfLearningSupervision(
                          input, layer.supervision, seed + 31 * l)
                          .value();
        have_supervision = true;
      }
      stats[l].supervision_coverage = supervision.Coverage();
      stats[l].supervision_clusters = supervision.num_clusters;
    }
    std::unique_ptr<rbm::RbmBase> model =
        MakeEncoder(layer.model, rbm_config, layer.sls, supervision);

    stats[l].epochs = model->Train(input);
    input = model->HiddenFeatures(input);
    MCIRBM_LOG(kInfo) << "stack layer " << l << " (" << model->name()
                      << ") trained; output width " << input.cols();
    models_.push_back(std::move(model));
  }
  return stats;
}

linalg::Matrix StackedEncoder::Transform(const linalg::Matrix& x,
                                         std::size_t depth) const {
  MCIRBM_CHECK_EQ(models_.size(), configs_.size())
      << "Transform before Train";
  const std::size_t layers = depth == 0 ? models_.size() : depth;
  MCIRBM_CHECK_LE(layers, models_.size());
  linalg::Matrix features = x;
  for (std::size_t l = 0; l < layers; ++l) {
    features = models_[l]->HiddenFeatures(features);
  }
  return features;
}

const rbm::RbmBase& StackedEncoder::layer(std::size_t i) const {
  MCIRBM_CHECK_LT(i, models_.size());
  return *models_[i];
}

const StackedLayerConfig& StackedEncoder::layer_config(std::size_t i) const {
  MCIRBM_CHECK_LT(i, configs_.size());
  return configs_[i];
}

std::vector<std::unique_ptr<rbm::RbmBase>>
StackedEncoder::ReleaseLayers() && {
  MCIRBM_CHECK(is_trained()) << "ReleaseLayers before Train";
  std::vector<std::unique_ptr<rbm::RbmBase>> layers = std::move(models_);
  models_.clear();
  return layers;
}

}  // namespace mcirbm::core
