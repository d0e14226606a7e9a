// api::Model save -> load -> transform round-trip parity with an in-memory
// pipeline run, for all four model kinds.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "api/api.h"
#include "data/synthetic.h"
#include "rbm/serialize.h"

namespace mcirbm::api {
namespace {

core::PipelineConfig TinyConfig(core::ModelKind kind) {
  core::PipelineConfig config;
  config.model = kind;
  config.rbm.num_hidden = 5;
  config.rbm.epochs = 2;
  config.rbm.batch_size = 10;
  config.supervision.num_clusters = 2;
  return config;
}

class ModelRoundTripTest
    : public ::testing::TestWithParam<core::ModelKind> {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/api_roundtrip_" +
            ModelKindRegistryName(GetParam()) + ".mcirbm";
    data::GaussianMixtureSpec spec;
    spec.name = "roundtrip";
    spec.num_classes = 2;
    spec.num_instances = 40;
    spec.num_features = 6;
    spec.separation = 6.0;
    x_ = data::GenerateGaussianMixture(spec, 21).x;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  linalg::Matrix x_;
};

TEST_P(ModelRoundTripTest, SaveLoadTransformMatchesInMemoryRun) {
  const core::ModelKind kind = GetParam();
  const core::PipelineConfig config = TinyConfig(kind);
  constexpr std::uint64_t kSeed = 33;

  // Reference: the raw core pipeline, bypassing the facade.
  const core::PipelineResult reference =
      core::TryRunEncoderPipeline(x_, config, kSeed).value();

  // Facade training must reproduce it bit-for-bit.
  auto trained = Model::Train(x_, config, kSeed);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  EXPECT_EQ(trained.value().kind(), ModelKindRegistryName(kind));
  EXPECT_EQ(trained.value().num_visible(), x_.cols());
  EXPECT_EQ(trained.value().num_hidden(), 5u);
  EXPECT_EQ(trained.value().num_layers(), 1u);

  auto in_memory = trained.value().Transform(x_);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_TRUE(
      in_memory.value().AllClose(reference.hidden_features, 0))
      << "facade transform diverged from the core pipeline";

  // Disk round-trip: save, reload, transform again — bit-identical.
  ASSERT_TRUE(trained.value().Save(path_).ok());
  auto restored = Model::Load(path_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().kind(), ModelKindRegistryName(kind));
  EXPECT_EQ(restored.value().num_visible(), x_.cols());
  EXPECT_EQ(restored.value().num_hidden(), 5u);

  auto reloaded = restored.value().Transform(x_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded.value().AllClose(in_memory.value(), 0))
      << "reloaded transform diverged from the freshly trained model";
}

// A one-layer file is the header, then the layer's SaveParameters bytes,
// exactly what a hand-rolled writer of the format produces.
TEST_P(ModelRoundTripTest, SaveWritesHeaderThenPayload) {
  const core::ModelKind kind = GetParam();
  auto trained = Model::Train(x_, TinyConfig(kind), 33);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  ASSERT_TRUE(trained.value().Save(path_).ok());

  std::ostringstream expected;
  expected << "mcirbm-model v1\nkind: " << ModelKindRegistryName(kind)
           << "\n";
  ASSERT_TRUE(rbm::SaveParameters(trained.value().layer(0), expected).ok());
  std::ifstream in(path_);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, expected.str());
}

// A small model fits in the stream buffer, so only the final flush can
// see the full device; Save must check it before reporting Ok.
TEST_P(ModelRoundTripTest, SaveToFullDeviceIsIoError) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  auto trained = Model::Train(x_, TinyConfig(GetParam()), 33);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const Status status = trained.value().Save("/dev/full");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST_P(ModelRoundTripTest, TransformRejectsWrongWidth) {
  auto trained = Model::Train(x_, TinyConfig(GetParam()), 3);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  linalg::Matrix narrow(x_.rows(), x_.cols() - 1);
  auto features = trained.value().Transform(narrow);
  ASSERT_FALSE(features.ok());
  EXPECT_EQ(features.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(ModelRoundTripTest, EvaluateScoresLoadedModel) {
  data::GaussianMixtureSpec spec;
  spec.name = "eval";
  spec.num_classes = 2;
  spec.num_instances = 40;
  spec.num_features = 6;
  spec.separation = 6.0;
  const data::Dataset ds = data::GenerateGaussianMixture(spec, 21);

  auto trained = Model::Train(ds.x, TinyConfig(GetParam()), 33);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  ASSERT_TRUE(trained.value().Save(path_).ok());
  auto restored = Model::Load(path_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  auto result = restored.value().Evaluate(ds.x, ds.labels);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().clusters_found, 2);
  EXPECT_GE(result.value().metrics.accuracy, 0.0);
  EXPECT_LE(result.value().metrics.accuracy, 1.0);

  auto bad = restored.value().Evaluate(
      ds.x, ds.labels, {.clusterer = "nonexistent"});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ModelRoundTripTest,
    ::testing::Values(core::ModelKind::kRbm, core::ModelKind::kGrbm,
                      core::ModelKind::kSlsRbm, core::ModelKind::kSlsGrbm),
    [](const ::testing::TestParamInfo<core::ModelKind>& info) {
      std::string name = ModelKindRegistryName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mcirbm::api
