// Ablation: the pieces of the sls objective.
//
//  * recon term on/off      — Eq. 15's reconstructed-view contribution
//  * disperse term on/off   — the center-dispersion half of Eq. 14/15
//  * pair vs Nh norm        — the constrict normalization (the literal
//                             Eq. 13 form collapses the code)
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

double RunVariant(const linalg::Matrix& x, const std::vector<int>& labels,
                  int num_classes, const core::SlsConfig& sls) {
  core::PipelineConfig cfg;
  cfg.model = core::ModelKind::kSlsGrbm;
  cfg.rbm.num_hidden = 64;
  cfg.rbm.epochs = 30;
  cfg.rbm.learning_rate = 1e-4;
  cfg.sls = sls;
  cfg.supervision.num_clusters = num_classes * 3;
  const auto result = core::TryRunEncoderPipeline(x, cfg, 13).value();
  clustering::KMeansConfig km;
  km.k = num_classes;
  return metrics::ClusteringAccuracy(
      labels,
      clustering::KMeans(km).Cluster(result.hidden_features, 1).assignment);
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  std::cout << "=== ablation: sls objective components (slsGRBM) ===\n";
  const auto datasets = bench::LoadBenchDatasets(7);
  const data::Dataset full =
      datasets.empty() ? data::GenerateMsraLike(6, 7) : datasets.front();
  const data::Dataset ds = data::StratifiedSubsample(full, 250, 1);
  linalg::Matrix x = ds.x;
  data::StandardizeInPlace(&x);

  struct Variant {
    const char* name;
    core::SlsConfig sls;
  };
  core::SlsConfig base;
  base.eta = 0.4;
  base.supervision_scale = 1000.0;

  std::vector<Variant> variants;
  variants.push_back({"full objective (default)     ", base});
  {
    core::SlsConfig v = base;
    v.include_recon_term = false;
    variants.push_back({"without Lrecon (Eq. 15)      ", v});
  }
  {
    core::SlsConfig v = base;
    v.include_disperse_term = false;
    variants.push_back({"without center dispersion    ", v});
  }
  {
    core::SlsConfig v = base;
    v.disperse_weight = 10.0;
    variants.push_back({"disperse weight x10          ", v});
  }
  {
    core::SlsConfig v = base;
    v.normalize_by_pairs = false;
    // The literal 1/Nh form makes the constrict term ~Nh times larger;
    // rescale so the comparison isolates the *shape* difference.
    v.supervision_scale = base.supervision_scale / 150.0;
    variants.push_back({"literal Eq.13 1/Nh norm      ", v});
  }
  {
    core::SlsConfig v = base;
    v.supervision_scale = 0.0;
    variants.push_back({"supervision off (eta-CD only)", v});
  }

  std::cout << "dataset " << ds.name << "\n";
  std::cout << "  variant                          acc(k-means on hidden)\n";
  for (const auto& variant : variants) {
    std::cout << "  " << variant.name << "  "
              << FormatDouble(
                     RunVariant(x, ds.labels, ds.num_classes, variant.sls),
                     4)
              << "\n";
  }
  return 0;
}
