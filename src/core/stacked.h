// Greedy layer-wise stacked encoder (DBN-style pre-training over the
// sls framework).
//
// The paper trains a single encoding layer; stacking is the natural
// deep extension: layer 0 encodes the visible data (slsGRBM/slsRBM per
// unit type), each further layer encodes the sigmoid activations of the
// layer below (binary-ish inputs -> RBM-family with sigmoid
// reconstruction). Each sls layer can recompute its self-learning local
// supervision *in the representation it actually trains on*, so the
// constrict/disperse pressure follows the features upward.
//
// A trained stack is persisted, served and reloaded as one api::Model:
// api::Model::FromStack takes its layers over, and Model::Save writes
// them as one "mcirbm-model v1" file.
#ifndef MCIRBM_CORE_STACKED_H_
#define MCIRBM_CORE_STACKED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "linalg/matrix.h"
#include "rbm/rbm_base.h"

namespace mcirbm::core {

/// Configuration of one stack layer.
struct StackedLayerConfig {
  ModelKind model = ModelKind::kSlsRbm;
  rbm::RbmConfig rbm;             ///< num_visible 0 = infer from input
  SlsConfig sls;                  ///< ignored by plain models
  SupervisionConfig supervision;  ///< ignored by plain models

  /// For sls layers: recompute the supervision on this layer's input
  /// (true, default) or reuse the supervision handed down from the layer
  /// below / the visible data (false).
  bool recompute_supervision = true;
};

/// Per-layer training record.
struct StackedLayerStats {
  std::vector<rbm::EpochStats> epochs;
  double supervision_coverage = 0;  ///< 0 for plain layers
  int supervision_clusters = 0;
};

/// A trained stack of encoders applied bottom-up.
class StackedEncoder {
 public:
  /// `layers` must be non-empty. Layer configs are copied.
  explicit StackedEncoder(std::vector<StackedLayerConfig> layers);

  /// Greedy layer-wise training on the rows of `x`; deterministic given
  /// `seed`. Returns per-layer stats (same order as the configs).
  std::vector<StackedLayerStats> Train(const linalg::Matrix& x,
                                       std::uint64_t seed);

  /// Feature map through the first `depth` layers (0 = all layers).
  /// Requires Train to have completed.
  linalg::Matrix Transform(const linalg::Matrix& x,
                           std::size_t depth = 0) const;

  std::size_t num_layers() const { return configs_.size(); }
  /// True once Train has completed.
  bool is_trained() const { return models_.size() == configs_.size(); }
  const rbm::RbmBase& layer(std::size_t i) const;
  const StackedLayerConfig& layer_config(std::size_t i) const;

  /// Hands the trained layers over, bottom-up, and leaves the stack
  /// untrained. Requires Train to have completed.
  std::vector<std::unique_ptr<rbm::RbmBase>> ReleaseLayers() &&;

 private:
  std::vector<StackedLayerConfig> configs_;
  std::vector<std::unique_ptr<rbm::RbmBase>> models_;
};

}  // namespace mcirbm::core

#endif  // MCIRBM_CORE_STACKED_H_
