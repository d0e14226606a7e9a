// Ablation: integration member sets for the multi-clustering voting.
//
// Beyond the paper's DP/K-means/AP trio, the library ships four more
// voters (Ward agglomerative, DBSCAN, GMM, spectral). This bench measures
// how the member set changes consensus coverage/purity and the downstream
// k-means accuracy of the trained slsGRBM — including the key scaling
// fact: unanimity collapses as members are added, majority voting keeps
// large ensembles usable.
#include "bench_common.h"
#include <iostream>
#include <string>
#include <vector>

#include "clustering/kmeans.h"
#include "core/pipeline.h"
#include "data/paper_datasets.h"
#include "data/transforms.h"
#include "eval/experiment.h"
#include "metrics/external.h"
#include "util/string_util.h"

using namespace mcirbm;  // NOLINT: bench driver

namespace {

struct Row {
  std::string name;
  core::SupervisionConfig config;
};

void RunDataset(const data::Dataset& full) {
  const data::Dataset ds = data::StratifiedSubsample(full, 250, 1);
  linalg::Matrix x = ds.x;
  data::StandardizeInPlace(&x);

  std::vector<Row> rows;
  {
    core::SupervisionConfig base;
    base.num_clusters = ds.num_classes;
    rows.push_back({"paper trio (unanimous)", base});

    core::SupervisionConfig ward = base;
    ward.voters.push_back({"agglomerative", {}, 1});
    rows.push_back({"+ agglomerative(Ward)", ward});

    core::SupervisionConfig gmm = ward;
    gmm.voters.push_back({"gmm", {}, 1});
    rows.push_back({"+ GMM", gmm});

    core::SupervisionConfig all = base;
    all.voters = core::ParseVoterList(
                     "dp,kmeans,ap,agglomerative,dbscan,gmm,spectral")
                     .value();
    rows.push_back({"all 7 (unanimous)", all});

    core::SupervisionConfig all_majority = all;
    all_majority.strategy = voting::VoteStrategy::kMajority;
    rows.push_back({"all 7 (majority)", all_majority});
  }

  const eval::ExperimentConfig paper = eval::MakePaperConfig(true);

  std::cout << "\ndataset " << ds.name << "\n";
  std::cout << "  member set               coverage  purity   acc(hidden)\n";
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
    const double purity = truth.empty() ? 0.0 : metrics::Purity(truth, pred);

    rbm::RbmConfig rc = paper.rbm;
    rc.num_visible = static_cast<int>(x.cols());
    rc.seed = 5;
    core::SlsGrbm model(rc, paper.sls, sup);
    model.Train(x);
    clustering::KMeansConfig km;
    km.k = ds.num_classes;
    const double acc = metrics::ClusteringAccuracy(
        ds.labels,
        clustering::KMeans(km).Cluster(model.HiddenFeatures(x), 1)
            .assignment);

    std::cout << "  " << PadRight(row.name, 25)
              << PadLeft(FormatDouble(sup.Coverage(), 3), 8)
              << PadLeft(FormatDouble(purity, 3), 9)
              << PadLeft(FormatDouble(acc, 4), 12) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  std::cout << "=== ablation: integration member sets (slsGRBM) ===\n";
  const auto datasets = bench::LoadBenchDatasets(7);
  if (!datasets.empty()) {
    for (const auto& ds : datasets) RunDataset(ds);
  } else {
    for (const int index : {4, 8}) {
      RunDataset(data::GenerateMsraLike(index, 7));
    }
  }
  std::cout << "\nreading: unanimity over many diverse voters collapses "
               "coverage; majority voting restores it while keeping the "
               "consensus purer than any single voter.\n";
  return 0;
}
