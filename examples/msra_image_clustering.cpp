// Domain example: unsupervised clustering of (MSRA-MM-like) web image
// features with slsGRBM — the paper's datasets I scenario.
//
// Walks one dataset through every stage with commentary: base clusterers,
// unanimous voting, slsGRBM training, and the three-way comparison
// raw / GRBM / slsGRBM for each of DP, K-means, AP.
//
// Usage: msra_image_clustering [dataset-index 0..8] [max-instances]
#include <cstdlib>
#include <iostream>

#include "api/api.h"
#include "data/paper_datasets.h"
#include "data/transforms.h"
#include "eval/algorithms.h"
#include "eval/experiment.h"
#include "metrics/external.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace mcirbm;

  const int index = argc > 1 ? std::atoi(argv[1]) : 0;
  const std::size_t cap = argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 300;
  if (index < 0 || index >= data::NumMsraDatasets()) {
    std::cerr << "dataset index must be 0.." << data::NumMsraDatasets() - 1
              << "\n";
    return 1;
  }

  const data::Dataset full = data::GenerateMsraLike(index, /*seed=*/7);
  const data::Dataset ds = data::StratifiedSubsample(full, cap, 1);
  std::cout << "dataset: " << ds.name << " — " << ds.num_instances()
            << " instances x " << ds.num_features() << " features, "
            << ds.num_classes << " relevance classes\n";

  // Raw baselines cluster the original descriptor space.
  const linalg::Matrix& x_raw = ds.x;
  // The encoder consumes standardized features (Gaussian visible units).
  linalg::Matrix x = ds.x;
  data::StandardizeInPlace(&x);

  // Calibrated paper hyper-parameters (the same ones the bench harness
  // uses; see eval::MakePaperConfig).
  const eval::ExperimentConfig paper = eval::MakePaperConfig(true);

  // Stage 1-2: multi-clustering integration on the visible layer, with
  // the paper's voters as registry specs ("dp", "kmeans"×3, "ap").
  core::SupervisionConfig sup_cfg = paper.supervision;
  sup_cfg.num_clusters = ds.num_classes;
  auto supervision_or = core::TryComputeSelfLearningSupervision(x, sup_cfg, 3);
  if (!supervision_or.ok()) {
    std::cerr << "supervision failed: "
              << supervision_or.status().ToString() << "\n";
    return 1;
  }
  const voting::LocalSupervision& supervision = supervision_or.value();
  std::cout << "\nunanimous voting kept " << supervision.NumCredible()
            << " credible instances in " << supervision.num_clusters
            << " local clusters (coverage "
            << FormatDouble(supervision.Coverage(), 3) << ")\n";

  // Stage 3: train plain GRBM and slsGRBM side by side via the facade.
  core::PipelineConfig plain_cfg;
  plain_cfg.model = core::ModelKind::kGrbm;
  plain_cfg.rbm = paper.rbm;
  auto plain = api::Model::Train(x, plain_cfg, 7);

  core::PipelineConfig sls_cfg = plain_cfg;
  sls_cfg.model = core::ModelKind::kSlsGrbm;
  sls_cfg.sls = paper.sls;
  sls_cfg.supervision = sup_cfg;
  auto sls = api::Model::Train(x, sls_cfg, 7);
  if (!plain.ok() || !sls.ok()) {
    std::cerr << "training failed\n";
    return 1;
  }
  const linalg::Matrix plain_hidden = plain.value().Transform(x).value();
  const linalg::Matrix sls_hidden = sls.value().Transform(x).value();

  // Stage 4: the paper's 3x3 comparison on this dataset.
  std::cout << "\nclusterer   variant        accuracy  purity   FMI\n";
  const linalg::Matrix* feats[3] = {&x_raw, &plain_hidden, &sls_hidden};
  const char* variant_names[3] = {"raw       ", "+GRBM     ", "+slsGRBM  "};
  for (int c = 0; c < eval::kNumClusterers; ++c) {
    for (int v = 0; v < 3; ++v) {
      const auto result = eval::RunClusterer(
          static_cast<eval::ClustererKind>(c), *feats[v], ds.num_classes,
          11);
      const auto m = metrics::ComputeAll(ds.labels, result.assignment);
      std::cout << PadRight(eval::ClustererKindName(
                                static_cast<eval::ClustererKind>(c)),
                            12)
                << variant_names[v] << "   "
                << FormatDouble(m.accuracy, 4) << "    "
                << FormatDouble(m.purity, 4) << "   "
                << FormatDouble(m.fmi, 4) << "\n";
    }
  }
  return 0;
}
