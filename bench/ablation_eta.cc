// Ablation: the scale coefficient η (Eq. 16) balancing CD likelihood
// against the constrict/disperse supervision. The paper fixes η=0.4
// (slsGRBM) / η=0.5 (slsRBM) without a sweep; this bench provides one.
//
// Sweeps η on one MSRA-like and one UCI-like dataset and reports k-means
// accuracy on the resulting hidden features.
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

double KmeansAccuracy(const linalg::Matrix& feats,
                      const std::vector<int>& labels, int k) {
  clustering::KMeansConfig km;
  km.k = k;
  const auto r = clustering::KMeans(km).Cluster(feats, 1);
  return metrics::ClusteringAccuracy(labels, r.assignment);
}

void SweepEta(bool grbm, const data::Dataset& full) {
  const data::Dataset ds = data::StratifiedSubsample(full, 250, 1);
  linalg::Matrix x = ds.x;
  if (grbm) {
    data::StandardizeInPlace(&x);
  } else {
    data::MinMaxScaleInPlace(&x);
  }
  std::cout << "\ndataset " << ds.name << " ("
            << (grbm ? "slsGRBM" : "slsRBM") << ", paper eta = "
            << (grbm ? "0.4" : "0.5") << ")\n";
  std::cout << "  eta    acc(k-means on hidden)  coverage\n";
  for (double eta : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    core::PipelineConfig cfg;
    cfg.model = grbm ? core::ModelKind::kSlsGrbm : core::ModelKind::kSlsRbm;
    cfg.rbm.num_hidden = 64;
    cfg.rbm.epochs = 30;
    cfg.rbm.learning_rate = grbm ? 1e-4 : 1e-5;
    cfg.sls.eta = eta;
    cfg.sls.supervision_scale = 1000.0;
    cfg.supervision.num_clusters = ds.num_classes * 3;
    const auto result = core::TryRunEncoderPipeline(x, cfg, 11).value();
    std::cout << "  " << FormatDouble(eta, 2) << "   "
              << PadLeft(FormatDouble(
                             KmeansAccuracy(result.hidden_features,
                                            ds.labels, ds.num_classes),
                             4),
                         8)
              << PadLeft(FormatDouble(result.supervision.Coverage(), 3), 18)
              << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  std::cout << "=== ablation: eta (CD weight vs supervision weight) ===\n";
  const auto datasets = bench::LoadBenchDatasets(7);
  if (!datasets.empty()) {
    // Real datasets sweep under the GRBM-family (standardized) settings.
    for (const auto& ds : datasets) SweepEta(/*grbm=*/true, ds);
    return 0;
  }
  SweepEta(/*grbm=*/true, data::GenerateMsraLike(1, 7));
  SweepEta(/*grbm=*/false, data::GenerateUciLike(1, 7));
  return 0;
}
