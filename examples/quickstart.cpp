// Quickstart: the full mcirbm pipeline on a synthetic dataset through the
// public api facade (Fig. 1 of the paper, end to end).
//
//   data -> {DP, K-means, AP} -> unanimous voting -> slsGRBM training ->
//   hidden features -> k-means -> external metrics
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "api/api.h"
#include "data/paper_datasets.h"
#include "data/transforms.h"
#include "eval/experiment.h"

int main() {
  using namespace mcirbm;

  // 1. One of the paper's datasets-I equivalents (MSRA-MM-like web image
  //    descriptors), subsampled for a fast first run.
  const data::Dataset full = data::GenerateMsraLike(/*index=*/8, /*seed=*/7);
  const data::Dataset dataset = data::StratifiedSubsample(full, 250, 1);

  // 2. Standardize for Gaussian visible units.
  linalg::Matrix x = dataset.x;
  data::StandardizeInPlace(&x);

  // 3. Configure and train the encoder (slsGRBM) with the calibrated
  //    paper hyper-parameters (η=0.4, lr=1e-4, Section V.B; width, epochs
  //    and scale calibrated on the synthetic substrate). Everything
  //    fallible returns StatusOr.
  const eval::ExperimentConfig paper = eval::MakePaperConfig(true);
  core::PipelineConfig config;
  config.model = core::ModelKind::kSlsGrbm;
  config.rbm = paper.rbm;
  config.sls = paper.sls;
  config.supervision = paper.supervision;
  config.supervision.num_clusters = dataset.num_classes;
  auto model = api::Model::Train(x, config, /*seed=*/7);
  if (!model.ok()) {
    std::cerr << "training failed: " << model.status().ToString() << "\n";
    return 1;
  }

  std::cout << "self-learning supervision: "
            << model.value().supervision().num_clusters
            << " credible clusters, "
            << model.value().supervision().NumCredible() << "/"
            << dataset.num_instances() << " instances credible\n";
  std::cout << "final reconstruction error: "
            << model.value().final_reconstruction_error() << "\n";

  // 4. Cluster the original data (as the paper's raw baseline does) vs
  //    the hidden features and compare — one Evaluate call each.
  api::EvalOptions eval_options;
  eval_options.clusterer = "kmeans";
  eval_options.k = dataset.num_classes;
  eval_options.seed = 1;
  // Raw baseline: k-means straight from the registry.
  ParamMap params;
  params.Set("k", std::to_string(dataset.num_classes));
  auto kmeans =
      clustering::ClustererRegistry::Global().Create("kmeans", params);
  const auto raw = kmeans.value()->Cluster(dataset.x, 1);
  const metrics::MetricBundle raw_m =
      metrics::ComputeAll(dataset.labels, raw.assignment);
  // Hidden features: straight through the model (transform + cluster +
  // score in one call). Note the paper clusters raw on the *original*
  // representation, so Evaluate runs on the standardized x only for the
  // hidden side.
  auto hid = model.value().Evaluate(x, dataset.labels, eval_options);
  if (!hid.ok()) {
    std::cerr << "evaluate failed: " << hid.status().ToString() << "\n";
    return 1;
  }
  const metrics::MetricBundle& hid_m = hid.value().metrics;

  std::cout << "\n             accuracy  purity   Rand     FMI\n";
  std::cout << "raw features   " << raw_m.accuracy << "   " << raw_m.purity
            << "   " << raw_m.rand_index << "   " << raw_m.fmi << "\n";
  std::cout << "slsGRBM hidden " << hid_m.accuracy << "   " << hid_m.purity
            << "   " << hid_m.rand_index << "   " << hid_m.fmi << "\n";
  return 0;
}
