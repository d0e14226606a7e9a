#include "core/self_training.h"

#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/logging.h"

namespace mcirbm::core {

SelfTrainingResult RunSelfTraining(const linalg::Matrix& x,
                                   const SelfTrainingConfig& config,
                                   std::uint64_t seed) {
  MCIRBM_CHECK_GT(x.rows(), 0u);
  MCIRBM_CHECK_GE(config.rounds, 1);
  const bool is_sls = config.pipeline.model == ModelKind::kSlsRbm ||
                      config.pipeline.model == ModelKind::kSlsGrbm;
  MCIRBM_CHECK(is_sls) << "self-training needs an sls model";

  SelfTrainingResult result;
  double previous_coverage = -1;

  // The representation the supervision is derived from: visible data in
  // round 0, the previous encoder's hidden features afterwards.
  linalg::Matrix supervision_input = x;

  for (int round = 0; round < config.rounds; ++round) {
    const std::uint64_t round_seed = seed + 7919ULL * round;
    voting::LocalSupervision supervision =
        TryComputeSelfLearningSupervision(
            supervision_input, config.pipeline.supervision, round_seed)
            .value();

    rbm::RbmConfig rbm_config = config.pipeline.rbm;
    if (rbm_config.num_visible == 0) {
      rbm_config.num_visible = static_cast<int>(x.cols());
    }
    rbm_config.seed = rbm_config.seed ^ round_seed;

    std::unique_ptr<rbm::RbmBase> model =
        MakeEncoder(config.pipeline.model, rbm_config, config.pipeline.sls,
                    supervision);
    const auto history = model->Train(x);

    SelfTrainingRound stats;
    stats.round = round;
    stats.supervision_coverage = supervision.Coverage();
    stats.supervision_clusters = supervision.num_clusters;
    stats.final_reconstruction_error =
        history.empty() ? model->ReconstructionError(x)
                        : history.back().reconstruction_error;
    result.rounds.push_back(stats);
    MCIRBM_LOG(kInfo) << "self-training round " << round << ": coverage "
                      << stats.supervision_coverage << ", "
                      << stats.supervision_clusters << " clusters";

    result.hidden_features = model->HiddenFeatures(x);
    result.supervision = std::move(supervision);
    result.model = std::move(model);
    supervision_input = result.hidden_features;

    if (config.coverage_tolerance > 0 && previous_coverage >= 0 &&
        std::abs(stats.supervision_coverage - previous_coverage) <
            config.coverage_tolerance) {
      result.stopped_early = true;
      break;
    }
    previous_coverage = stats.supervision_coverage;
  }
  return result;
}

}  // namespace mcirbm::core
