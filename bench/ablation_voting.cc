// Ablation: voting strategy for the multi-clustering integration.
//
// The paper chooses *unanimous* voting to make local clusters credible.
// This bench compares supervision quality (coverage, purity) and the
// downstream k-means accuracy for: unanimous, majority, and each single
// clusterer used alone (no voting).
#include "bench_common.h"
#include <iostream>

#include "clustering/kmeans.h"
#include "core/pipeline.h"
#include "data/paper_datasets.h"
#include "data/transforms.h"
#include "metrics/external.h"
#include "util/string_util.h"

using namespace mcirbm;  // NOLINT: bench driver

namespace {

struct Row {
  std::string name;
  core::SupervisionConfig config;
};

void RunDataset(bool grbm, const data::Dataset& full) {
  const data::Dataset ds = data::StratifiedSubsample(full, 250, 1);
  linalg::Matrix x = ds.x;
  if (grbm) {
    data::StandardizeInPlace(&x);
  } else {
    data::MinMaxScaleInPlace(&x);
  }
  const int k_sup = ds.num_classes * 3;

  std::vector<Row> rows;
  {
    core::SupervisionConfig base;
    base.num_clusters = k_sup;
    Row unanimous{"unanimous(DP,KM,AP)", base};
    rows.push_back(unanimous);
    Row majority{"majority (DP,KM,AP)", base};
    majority.config.strategy = voting::VoteStrategy::kMajority;
    rows.push_back(majority);
    Row dp_only{"DP alone          ", base};
    dp_only.config.voters = {{"dp", {}, 1}};
    rows.push_back(dp_only);
    Row km_only{"K-means alone     ", base};
    km_only.config.voters = {{"kmeans", {}, 1}};
    rows.push_back(km_only);
    Row ap_only{"AP alone          ", base};
    ap_only.config.voters = {{"ap", {}, 1}};
    rows.push_back(ap_only);
  }

  std::cout << "\ndataset " << ds.name << "\n";
  std::cout << "  strategy              coverage  purity   acc(hidden)\n";
  for (const auto& row : rows) {
    const auto sup =
        core::TryComputeSelfLearningSupervision(x, row.config, 5).value();
    std::vector<int> truth, pred;
    for (std::size_t i = 0; i < sup.cluster_of.size(); ++i) {
      if (sup.cluster_of[i] >= 0) {
        truth.push_back(ds.labels[i]);
        pred.push_back(sup.cluster_of[i]);
      }
    }
    const double purity =
        truth.empty() ? 0.0 : metrics::Purity(truth, pred);

    // Train the sls model with this supervision and cluster the features.
    rbm::RbmConfig rc;
    rc.num_visible = static_cast<int>(x.cols());
    rc.num_hidden = 64;
    rc.epochs = 30;
    rc.learning_rate = grbm ? 1e-4 : 1e-5;
    rc.seed = 5;
    core::SlsConfig sls;
    sls.eta = grbm ? 0.4 : 0.5;
    sls.supervision_scale = 1000.0;
    double acc = 0;
    if (grbm) {
      core::SlsGrbm model(rc, sls, sup);
      model.Train(x);
      clustering::KMeansConfig km;
      km.k = ds.num_classes;
      acc = metrics::ClusteringAccuracy(
          ds.labels,
          clustering::KMeans(km).Cluster(model.HiddenFeatures(x), 1)
              .assignment);
    } else {
      core::SlsRbm model(rc, sls, sup);
      model.Train(x);
      clustering::KMeansConfig km;
      km.k = ds.num_classes;
      acc = metrics::ClusteringAccuracy(
          ds.labels,
          clustering::KMeans(km).Cluster(model.HiddenFeatures(x), 1)
              .assignment);
    }
    std::cout << "  " << PadRight(row.name, 22)
              << PadLeft(FormatDouble(sup.Coverage(), 3), 8)
              << PadLeft(FormatDouble(purity, 3), 9)
              << PadLeft(FormatDouble(acc, 4), 12) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  std::cout << "=== ablation: voting strategy for local supervision ===\n";
  const auto datasets = bench::LoadBenchDatasets(7);
  if (!datasets.empty()) {
    // Real datasets run under the GRBM-family (standardized) settings.
    for (const auto& ds : datasets) RunDataset(/*grbm=*/true, ds);
    return 0;
  }
  RunDataset(/*grbm=*/true, data::GenerateMsraLike(4, 7));
  RunDataset(/*grbm=*/false, data::GenerateUciLike(4, 7));
  return 0;
}
