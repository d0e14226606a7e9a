// Deep stack: greedy layer-wise stacking of sls encoders.
//
// The paper trains a single encoding layer. This example stacks an
// slsGRBM bottom layer with slsRBM upper layers — each recomputing the
// self-learning local supervision in its own input space — and reports
// how downstream clustering accuracy changes with depth. The trained
// stack becomes one api::Model (FromStack), is saved as one model file
// and reloaded through api::Model::Load to confirm inference parity.
//
// Build & run:  ./build/examples/deep_stack
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>

#include "api/api.h"
#include "clustering/kmeans.h"
#include "core/stacked.h"
#include "data/paper_datasets.h"
#include "eval/experiment.h"
#include "data/transforms.h"
#include "metrics/external.h"
#include "metrics/internal.h"

int main() {
  using namespace mcirbm;

  const data::Dataset full = data::GenerateMsraLike(/*index=*/4, /*seed=*/7);
  const data::Dataset dataset = data::StratifiedSubsample(full, 250, 1);
  linalg::Matrix x = dataset.x;
  data::StandardizeInPlace(&x);

  // Bottom layer: slsGRBM on the real-valued inputs (paper setting).
  const eval::ExperimentConfig paper = eval::MakePaperConfig(true);
  core::StackedLayerConfig bottom;
  bottom.model = core::ModelKind::kSlsGrbm;
  bottom.rbm = paper.rbm;
  bottom.sls = paper.sls;
  bottom.supervision = paper.supervision;
  bottom.supervision.num_clusters = dataset.num_classes;

  // Upper layers: slsRBM on the sigmoid activations below, each
  // re-deriving its local supervision from its own input space.
  core::StackedLayerConfig middle = bottom;
  middle.model = core::ModelKind::kSlsRbm;
  middle.rbm.num_hidden = 24;
  middle.rbm.learning_rate = 0.01;

  core::StackedLayerConfig top = middle;
  top.rbm.num_hidden = 12;

  core::StackedEncoder stack({bottom, middle, top});
  const auto stats = stack.Train(x, /*seed=*/7);

  std::cout << std::fixed << std::setprecision(3);
  std::cout << "layer  width  supervision-coverage\n";
  for (std::size_t l = 0; l < stack.num_layers(); ++l) {
    std::cout << "  " << l << "     " << std::setw(4)
              << stack.layer(l).config().num_hidden << "   "
              << stats[l].supervision_coverage << "\n";
  }

  // Cluster the representation at every depth.
  clustering::KMeansConfig km;
  km.k = dataset.num_classes;
  std::cout << "\ndepth  k-means accuracy  silhouette\n";
  {
    const auto raw = clustering::KMeans(km).Cluster(dataset.x, 1);
    std::cout << "raw    " << std::setw(10)
              << metrics::ClusteringAccuracy(dataset.labels, raw.assignment)
              << std::setw(13)
              << metrics::SilhouetteScore(dataset.x, dataset.labels) << "\n";
  }
  for (std::size_t depth = 1; depth <= stack.num_layers(); ++depth) {
    const linalg::Matrix features = stack.Transform(x, depth);
    const auto clusters = clustering::KMeans(km).Cluster(features, 1);
    std::cout << "  " << depth << "    " << std::setw(10)
              << metrics::ClusteringAccuracy(dataset.labels,
                                             clusters.assignment)
              << std::setw(13)
              << metrics::SilhouetteScore(features, dataset.labels) << "\n";
  }

  // Persist the whole stack as one model file and reload it through the
  // same entry point single-layer models use.
  const linalg::Matrix expected = stack.Transform(x);
  auto model = api::Model::FromStack(std::move(stack));
  if (!model.ok()) {
    std::cerr << "stack wrap failed: " << model.status().ToString() << "\n";
    return 1;
  }
  const std::string path = "/tmp/mcirbm_deep_stack.mcirbm";
  const Status save_status = model.value().Save(path);
  if (!save_status.ok()) {
    std::cerr << "stack save failed: " << save_status.ToString() << "\n";
    return 1;
  }
  auto reloaded = api::Model::Load(path);
  std::remove(path.c_str());
  if (!reloaded.ok()) {
    std::cerr << "stack load failed: " << reloaded.status().ToString()
              << "\n";
    return 1;
  }
  const bool parity =
      reloaded.value().Transform(x).value().AllClose(expected, 0);
  std::cout << "\nsaved " << reloaded.value().num_layers() << "-layer "
            << reloaded.value().kind()
            << " stack; api::Model::Load transform parity: "
            << (parity ? "OK" : "MISMATCH") << "\n";
  return parity ? 0 : 1;
}
