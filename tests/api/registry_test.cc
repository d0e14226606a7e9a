// Registry surface: built-in names, Create error paths, duplicate
// registration, voter-spec resolution; the model names and the one
// ModelKind -> class factory.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/api.h"
#include "data/synthetic.h"
#include "eval/experiment.h"

namespace mcirbm {
namespace {

bool Listed(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(ClustererRegistryTest, ListsAllBuiltins) {
  const auto names = clustering::ClustererRegistry::Global().ListRegistered();
  for (const char* expected : {"dp", "kmeans", "ap", "agglomerative",
                               "dbscan", "gmm", "spectral"}) {
    EXPECT_TRUE(Listed(names, expected)) << expected;
  }
}

TEST(ClustererRegistryTest, UnknownNameIsNotFound) {
  auto result = clustering::ClustererRegistry::Global().Create(
      "nonexistent", ParamMap{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ClustererRegistryTest, DuplicateRegistrationFails) {
  auto& registry = clustering::ClustererRegistry::Global();
  ASSERT_TRUE(registry
                  .Register("registry-test-dup",
                            [](const ParamMap&) {
                              return StatusOr<
                                  std::unique_ptr<clustering::Clusterer>>(
                                  Status::Internal("unused"));
                            })
                  .ok());
  const Status again = registry.Register(
      "registry-test-dup", [](const ParamMap&) {
        return StatusOr<std::unique_ptr<clustering::Clusterer>>(
            Status::Internal("unused"));
      });
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
}

TEST(ClustererRegistryTest, UnknownParameterRejected) {
  ParamMap params;
  params.Set("k", "3");
  params.Set("bogus", "1");
  auto result =
      clustering::ClustererRegistry::Global().Create("kmeans", params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClustererRegistryTest, MalformedParameterRejected) {
  ParamMap params;
  params.Set("k", "three");
  auto result =
      clustering::ClustererRegistry::Global().Create("kmeans", params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

// Values the clusterers CHECK on (at construction or inside Cluster) must
// come back from Create as InvalidArgument, never reach the CHECK.
TEST(ClustererRegistryTest, OutOfRangeValuesRejectedAtCreate) {
  struct Case {
    const char* clusterer;
    const char* key;
    const char* value;
  };
  const Case cases[] = {
      {"ap", "max_iterations", "0"},  {"ap", "damping", "nan"},
      {"ap", "k", "-3"},              {"ap", "convergence_window", "0"},
      {"ap", "preference_search_steps", "-1"},
      {"kmeans", "max_iterations", "0"},
      {"dp", "dc_percentile", "0"},   {"dp", "dc_percentile", "150"},
      {"dbscan", "eps_quantile", "150"},
      {"dbscan", "eps_quantile", "-1"},
      {"gmm", "variance_floor", "-1"},
  };
  for (const Case& c : cases) {
    ParamMap params;
    params.Set(c.key, c.value);
    auto result =
        clustering::ClustererRegistry::Global().Create(c.clusterer, params);
    ASSERT_FALSE(result.ok()) << c.clusterer << " " << c.key << "=" << c.value;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << c.clusterer << " " << c.key << "=" << c.value;
  }
}

TEST(ClustererRegistryTest, CreatedClusterersCluster) {
  data::GaussianMixtureSpec spec;
  spec.name = "reg";
  spec.num_classes = 2;
  spec.num_instances = 40;
  spec.num_features = 4;
  spec.separation = 6.0;
  const data::Dataset ds = data::GenerateGaussianMixture(spec, 3);
  for (const auto& name :
       clustering::ClustererRegistry::Global().ListRegistered()) {
    if (name == "registry-test-dup") continue;  // stub from the dup test
    ParamMap params;
    params.Set("k", "2");
    auto clusterer =
        clustering::ClustererRegistry::Global().Create(name, params);
    ASSERT_TRUE(clusterer.ok()) << name << ": "
                                << clusterer.status().ToString();
    const auto result = clusterer.value()->Cluster(ds.x, 5);
    EXPECT_EQ(result.assignment.size(), ds.num_instances()) << name;
  }
}

TEST(ModelKindTest, KindNameMappingRoundTrips) {
  for (const auto kind :
       {core::ModelKind::kRbm, core::ModelKind::kGrbm,
        core::ModelKind::kSlsRbm, core::ModelKind::kSlsGrbm}) {
    auto back = api::ModelKindFromName(api::ModelKindRegistryName(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), kind);
  }
  EXPECT_EQ(api::ModelKindFromName("mlp").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(api::ModelNames(), "rbm|grbm|sls-rbm|sls-grbm");
}

// core::MakeEncoder builds each kind as the class its name says.
TEST(ModelKindTest, MakeEncoderBuildsEveryKind) {
  voting::LocalSupervision supervision;
  supervision.cluster_of = {0, 0, 1, 1};
  supervision.num_clusters = 2;
  rbm::RbmConfig config;
  config.num_visible = 6;
  config.num_hidden = 4;
  for (const auto kind :
       {core::ModelKind::kRbm, core::ModelKind::kGrbm,
        core::ModelKind::kSlsRbm, core::ModelKind::kSlsGrbm}) {
    const auto model =
        core::MakeEncoder(kind, config, core::SlsConfig{}, supervision);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), api::ModelKindRegistryName(kind));
    EXPECT_EQ(model->weights().rows(), 6u);
    EXPECT_EQ(model->weights().cols(), 4u);
  }
}

TEST(VoterSpecTest, ParseVoterListHandlesCountsAndErrors) {
  auto specs = core::ParseVoterList("dp, kmeans*3 ,ap");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs.value().size(), 3u);
  EXPECT_EQ(specs.value()[0].clusterer, "dp");
  EXPECT_EQ(specs.value()[1].clusterer, "kmeans");
  EXPECT_EQ(specs.value()[1].count, 3);
  EXPECT_EQ(specs.value()[2].clusterer, "ap");

  EXPECT_EQ(core::ParseVoterList("dp,unknown").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(core::ParseVoterList("kmeans*zero").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(core::ParseVoterList("kmeans*0").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(core::ParseVoterList("").status().code(),
            StatusCode::kInvalidArgument);
}

// The resolved voter list spelled "name*count,...", or the error; a voter
// with parameters is marked, since the paper voters take none.
std::string ResolvedVoters(const core::SupervisionConfig& config) {
  const auto specs = core::ResolveVoterSpecs(config);
  if (!specs.ok()) return specs.status().ToString();
  std::string spelled;
  for (const core::VoterSpec& spec : specs.value()) {
    if (!spelled.empty()) spelled += ",";
    spelled += spec.clusterer + "*" + std::to_string(spec.count);
    if (!spec.params.empty()) spelled += "(params)";
  }
  return spelled;
}

TEST(VoterSpecTest, DefaultsResolveToThePaperVoters) {
  // The paper's DP/K-means/AP trio; MakePaperConfig runs three K-means
  // members. The order is part of the result: the first voter's partition
  // is the one the others are aligned to.
  EXPECT_EQ(ResolvedVoters(core::SupervisionConfig{}), "dp*1,kmeans*1,ap*1");
  for (const bool grbm_family : {true, false}) {
    EXPECT_EQ(ResolvedVoters(eval::MakePaperConfig(grbm_family).supervision),
              "dp*1,kmeans*3,ap*1")
        << "grbm_family " << grbm_family;
  }
}

TEST(VoterSpecTest, EmptyVoterSetIsInvalidArgument) {
  data::GaussianMixtureSpec spec;
  spec.name = "none";
  spec.num_classes = 2;
  spec.num_instances = 20;
  spec.num_features = 3;
  spec.separation = 5.0;
  const data::Dataset ds = data::GenerateGaussianMixture(spec, 1);
  core::SupervisionConfig config;
  config.num_clusters = 2;
  config.voters.clear();
  auto sup = core::TryComputeSelfLearningSupervision(ds.x, config, 1);
  ASSERT_FALSE(sup.ok());
  EXPECT_EQ(sup.status().code(), StatusCode::kInvalidArgument);
}

TEST(VoterSpecTest, UnknownVoterNameSurfacesAsStatus) {
  data::GaussianMixtureSpec spec;
  spec.name = "bad";
  spec.num_classes = 2;
  spec.num_instances = 20;
  spec.num_features = 3;
  spec.separation = 5.0;
  const data::Dataset ds = data::GenerateGaussianMixture(spec, 1);
  core::SupervisionConfig config;
  config.num_clusters = 2;
  config.voters = {{"definitely-not-a-clusterer", {}, 1}};
  auto sup = core::TryComputeSelfLearningSupervision(ds.x, config, 1);
  ASSERT_FALSE(sup.ok());
  EXPECT_EQ(sup.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mcirbm
