#include "clustering/registry.h"

#include <string>
#include <utility>

#include "clustering/affinity_propagation.h"
#include "clustering/agglomerative.h"
#include "clustering/dbscan.h"
#include "clustering/density_peaks.h"
#include "clustering/gmm.h"
#include "clustering/kmeans.h"
#include "clustering/spectral.h"

namespace mcirbm::clustering {
namespace {

// dp: k, dc_percentile, gaussian_kernel
StatusOr<std::unique_ptr<Clusterer>> MakeDensityPeaks(const ParamMap& p) {
  Status s = p.ExpectOnly({"k", "dc_percentile", "gaussian_kernel"});
  if (!s.ok()) return s;
  DensityPeaksConfig cfg;
  MCIRBM_ASSIGN_OR_RETURN(cfg.k, p.GetInt("k", cfg.k));
  MCIRBM_ASSIGN_OR_RETURN(cfg.dc_percentile,
                      p.GetDouble("dc_percentile", cfg.dc_percentile));
  MCIRBM_ASSIGN_OR_RETURN(cfg.gaussian_kernel,
                      p.GetBool("gaussian_kernel", cfg.gaussian_kernel));
  if (cfg.k <= 0) return Status::InvalidArgument("dp: k must be positive");
  if (!(cfg.dc_percentile > 0 && cfg.dc_percentile <= 100)) {
    return Status::InvalidArgument("dp: dc_percentile must be in (0, 100]");
  }
  return std::unique_ptr<Clusterer>(new DensityPeaks(cfg));
}

// kmeans: k, max_iterations, restarts, tol
StatusOr<std::unique_ptr<Clusterer>> MakeKMeans(const ParamMap& p) {
  Status s = p.ExpectOnly({"k", "max_iterations", "restarts", "tol"});
  if (!s.ok()) return s;
  KMeansConfig cfg;
  MCIRBM_ASSIGN_OR_RETURN(cfg.k, p.GetInt("k", cfg.k));
  MCIRBM_ASSIGN_OR_RETURN(cfg.max_iterations,
                      p.GetInt("max_iterations", cfg.max_iterations));
  MCIRBM_ASSIGN_OR_RETURN(cfg.restarts, p.GetInt("restarts", cfg.restarts));
  MCIRBM_ASSIGN_OR_RETURN(cfg.tol, p.GetDouble("tol", cfg.tol));
  if (cfg.k <= 0) {
    return Status::InvalidArgument("kmeans: k must be positive");
  }
  if (cfg.max_iterations <= 0) {
    return Status::InvalidArgument("kmeans: max_iterations must be positive");
  }
  if (cfg.restarts <= 0) {
    return Status::InvalidArgument("kmeans: restarts must be positive");
  }
  return std::unique_ptr<Clusterer>(new KMeans(cfg));
}

// ap: k (target cluster count; 0 = median preference), damping,
// max_iterations, convergence_window, preference_search_steps
StatusOr<std::unique_ptr<Clusterer>> MakeAffinityPropagation(
    const ParamMap& p) {
  Status s = p.ExpectOnly({"k", "damping", "max_iterations",
                           "convergence_window", "preference_search_steps"});
  if (!s.ok()) return s;
  AffinityPropagationConfig cfg;
  MCIRBM_ASSIGN_OR_RETURN(cfg.target_clusters,
                      p.GetInt("k", cfg.target_clusters));
  MCIRBM_ASSIGN_OR_RETURN(cfg.damping, p.GetDouble("damping", cfg.damping));
  MCIRBM_ASSIGN_OR_RETURN(cfg.max_iterations,
                      p.GetInt("max_iterations", cfg.max_iterations));
  MCIRBM_ASSIGN_OR_RETURN(cfg.convergence_window,
                      p.GetInt("convergence_window", cfg.convergence_window));
  MCIRBM_ASSIGN_OR_RETURN(
      cfg.preference_search_steps,
      p.GetInt("preference_search_steps", cfg.preference_search_steps));
  if (cfg.target_clusters < 0) {
    return Status::InvalidArgument(
        "ap: k must be positive, or 0 for the median preference");
  }
  if (!(cfg.damping >= 0.5 && cfg.damping < 1.0)) {
    return Status::InvalidArgument("ap: damping must be in [0.5, 1)");
  }
  if (cfg.max_iterations <= 0) {
    return Status::InvalidArgument("ap: max_iterations must be positive");
  }
  if (cfg.convergence_window < 1) {
    return Status::InvalidArgument("ap: convergence_window must be positive");
  }
  if (cfg.preference_search_steps < 0) {
    return Status::InvalidArgument(
        "ap: preference_search_steps must be non-negative");
  }
  return std::unique_ptr<Clusterer>(new AffinityPropagation(cfg));
}

// agglomerative: k, linkage=single|complete|average|ward
StatusOr<std::unique_ptr<Clusterer>> MakeAgglomerative(const ParamMap& p) {
  Status s = p.ExpectOnly({"k", "linkage"});
  if (!s.ok()) return s;
  int k = 2;
  std::string linkage_name;
  MCIRBM_ASSIGN_OR_RETURN(k, p.GetInt("k", k));
  MCIRBM_ASSIGN_OR_RETURN(linkage_name, p.GetString("linkage", "ward"));
  if (k <= 0) {
    return Status::InvalidArgument("agglomerative: k must be positive");
  }
  Linkage linkage;
  if (linkage_name == "single") {
    linkage = Linkage::kSingle;
  } else if (linkage_name == "complete") {
    linkage = Linkage::kComplete;
  } else if (linkage_name == "average") {
    linkage = Linkage::kAverage;
  } else if (linkage_name == "ward") {
    linkage = Linkage::kWard;
  } else {
    return Status::InvalidArgument(
        "agglomerative: unknown linkage '" + linkage_name +
        "' (single|complete|average|ward)");
  }
  return std::unique_ptr<Clusterer>(new Agglomerative(k, linkage));
}

// dbscan: eps, min_points, eps_quantile ("k" accepted and ignored — the
// algorithm discovers its own cluster count)
StatusOr<std::unique_ptr<Clusterer>> MakeDbscan(const ParamMap& p) {
  Status s = p.ExpectOnly({"k", "eps", "min_points", "eps_quantile"});
  if (!s.ok()) return s;
  Dbscan::Options opt;
  MCIRBM_ASSIGN_OR_RETURN(opt.eps, p.GetDouble("eps", opt.eps));
  MCIRBM_ASSIGN_OR_RETURN(opt.min_points, p.GetInt("min_points", opt.min_points));
  MCIRBM_ASSIGN_OR_RETURN(opt.eps_quantile,
                      p.GetDouble("eps_quantile", opt.eps_quantile));
  if (opt.min_points <= 0) {
    return Status::InvalidArgument("dbscan: min_points must be positive");
  }
  if (!(opt.eps_quantile >= 0 && opt.eps_quantile <= 100)) {
    return Status::InvalidArgument("dbscan: eps_quantile must be in [0, 100]");
  }
  return std::unique_ptr<Clusterer>(new Dbscan(opt));
}

// gmm: k, max_iterations, tolerance, variance_floor
StatusOr<std::unique_ptr<Clusterer>> MakeGaussianMixture(const ParamMap& p) {
  Status s =
      p.ExpectOnly({"k", "max_iterations", "tolerance", "variance_floor"});
  if (!s.ok()) return s;
  GaussianMixture::Options opt;
  MCIRBM_ASSIGN_OR_RETURN(opt.num_components, p.GetInt("k", opt.num_components));
  MCIRBM_ASSIGN_OR_RETURN(opt.max_iterations,
                      p.GetInt("max_iterations", opt.max_iterations));
  MCIRBM_ASSIGN_OR_RETURN(opt.tolerance,
                      p.GetDouble("tolerance", opt.tolerance));
  MCIRBM_ASSIGN_OR_RETURN(opt.variance_floor,
                      p.GetDouble("variance_floor", opt.variance_floor));
  if (opt.num_components <= 0) {
    return Status::InvalidArgument("gmm: k must be positive");
  }
  if (!(opt.variance_floor >= 0)) {
    return Status::InvalidArgument("gmm: variance_floor must be >= 0");
  }
  return std::unique_ptr<Clusterer>(new GaussianMixture(opt));
}

// spectral: k, sigma, knn, kmeans_restarts
StatusOr<std::unique_ptr<Clusterer>> MakeSpectral(const ParamMap& p) {
  Status s = p.ExpectOnly({"k", "sigma", "knn", "kmeans_restarts"});
  if (!s.ok()) return s;
  Spectral::Options opt;
  MCIRBM_ASSIGN_OR_RETURN(opt.num_clusters, p.GetInt("k", opt.num_clusters));
  MCIRBM_ASSIGN_OR_RETURN(opt.sigma, p.GetDouble("sigma", opt.sigma));
  MCIRBM_ASSIGN_OR_RETURN(opt.knn, p.GetInt("knn", opt.knn));
  MCIRBM_ASSIGN_OR_RETURN(opt.kmeans_restarts,
                      p.GetInt("kmeans_restarts", opt.kmeans_restarts));
  if (opt.num_clusters <= 0) {
    return Status::InvalidArgument("spectral: k must be positive");
  }
  return std::unique_ptr<Clusterer>(new Spectral(opt));
}

}  // namespace

ClustererRegistry::ClustererRegistry() : NamedRegistry("clusterer") {
  AddBuiltin("dp", MakeDensityPeaks);
  AddBuiltin("kmeans", MakeKMeans);
  AddBuiltin("ap", MakeAffinityPropagation);
  AddBuiltin("agglomerative", MakeAgglomerative);
  AddBuiltin("dbscan", MakeDbscan);
  AddBuiltin("gmm", MakeGaussianMixture);
  AddBuiltin("spectral", MakeSpectral);
}

ClustererRegistry& ClustererRegistry::Global() {
  static ClustererRegistry* registry = new ClustererRegistry();
  return *registry;
}

Status CheckClusterCount(const std::string& what, int k, std::size_t rows) {
  if (k > 0 && static_cast<std::size_t>(k) > rows) {
    return Status::InvalidArgument(what + ": k = " + std::to_string(k) +
                                   " exceeds the " + std::to_string(rows) +
                                   " input rows");
  }
  return Status::Ok();
}

}  // namespace mcirbm::clustering
