// A trained stack persists as one "mcirbm-model v1" file: a kind list
// plus one payload per layer, through api::Model::FromStack -> Save ->
// Load.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "api/model.h"
#include "core/stacked.h"
#include "data/synthetic.h"
#include "data/transforms.h"

namespace mcirbm::core {
namespace {

class StackSerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/stack_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string ReadFile() const {
    std::ifstream in(path_);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void WriteFile(const std::string& contents) const {
    std::ofstream out(path_);
    out << contents;
  }

  std::string path_;
};

data::Dataset SmallMixture(std::uint64_t seed) {
  data::GaussianMixtureSpec spec;
  spec.name = "serialize";
  spec.num_classes = 2;
  spec.num_instances = 80;
  spec.num_features = 10;
  spec.separation = 3.0;
  data::Dataset ds = data::GenerateGaussianMixture(spec, seed);
  data::StandardizeInPlace(&ds.x);
  return ds;
}

StackedEncoder MakeTrainedStack(const linalg::Matrix& x, bool with_sls) {
  StackedLayerConfig bottom;
  bottom.model = with_sls ? ModelKind::kSlsGrbm : ModelKind::kGrbm;
  bottom.rbm.num_hidden = 8;
  bottom.rbm.epochs = 5;
  bottom.rbm.learning_rate = 1e-3;
  bottom.supervision.num_clusters = 2;

  StackedLayerConfig top;
  top.model = with_sls ? ModelKind::kSlsRbm : ModelKind::kRbm;
  top.rbm.num_hidden = 4;
  top.rbm.epochs = 5;
  top.rbm.learning_rate = 0.05;
  top.supervision.num_clusters = 2;

  StackedEncoder stack({bottom, top});
  stack.Train(x, 5);
  return stack;
}

// Saves a trained stack to `path` through the one model writer.
void SaveAsModel(StackedEncoder stack, const std::string& path) {
  auto model = api::Model::FromStack(std::move(stack));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model.value().Save(path).ok());
}

TEST_F(StackSerializeTest, RoundTripPreservesTransformExactly) {
  const data::Dataset ds = SmallMixture(3);
  StackedEncoder stack = MakeTrainedStack(ds.x, /*with_sls=*/false);
  const linalg::Matrix expected = stack.Transform(ds.x);
  SaveAsModel(std::move(stack), path_);

  auto loaded = api::Model::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_layers(), 2u);
  EXPECT_EQ(loaded.value().kind(), "grbm,rbm");
  EXPECT_EQ(loaded.value().num_visible(), 10u);
  EXPECT_EQ(loaded.value().num_hidden(), 4u);
  auto features = loaded.value().Transform(ds.x);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_TRUE(features.value().AllClose(expected, 0));
  // One file: no per-layer sidecars next to it.
  EXPECT_FALSE(std::filesystem::exists(path_ + ".layer0"));
  EXPECT_EQ(ReadFile().rfind("mcirbm-model v1\nkind: grbm,rbm\n", 0), 0u);
}

TEST_F(StackSerializeTest, SlsLayersLoadAsInferenceEquivalentPlainModels) {
  const data::Dataset ds = SmallMixture(5);
  StackedEncoder stack = MakeTrainedStack(ds.x, /*with_sls=*/true);
  const linalg::Matrix expected = stack.Transform(ds.x);
  SaveAsModel(std::move(stack), path_);

  auto loaded = api::Model::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().kind(), "sls-grbm,sls-rbm");
  // The layers reload as plain models, but Transform must agree exactly
  // (supervision affects training only).
  EXPECT_EQ(loaded.value().layer(0).name(), "grbm");
  EXPECT_EQ(loaded.value().layer(1).name(), "rbm");
  EXPECT_TRUE(loaded.value().Transform(ds.x).value().AllClose(expected, 0));
}

TEST_F(StackSerializeTest, UntrainedStackRejected) {
  StackedLayerConfig layer;
  layer.model = ModelKind::kGrbm;
  layer.rbm.num_hidden = 4;
  auto model = api::Model::FromStack(StackedEncoder({layer}));
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

// A file cut at a layer boundary must not load as a shorter stack.
TEST_F(StackSerializeTest, FewerPayloadsThanKindsRejected) {
  const data::Dataset ds = SmallMixture(7);
  SaveAsModel(MakeTrainedStack(ds.x, /*with_sls=*/false), path_);
  const std::string contents = ReadFile();
  const std::size_t first = contents.find("mcirbm-rbm v1");
  const std::size_t second = contents.find("mcirbm-rbm v1", first + 1);
  ASSERT_NE(second, std::string::npos);
  WriteFile(contents.substr(0, second));

  auto loaded = api::Model::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("layer 1"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(StackSerializeTest, LayerWidthsMustChain) {
  // Layer 0 is 2 -> 3 but layer 1 reads 2 visible units.
  WriteFile(
      "mcirbm-model v1\nkind: grbm,rbm\n"
      "mcirbm-rbm v1\ngrbm\n2 3\na: 0 0\nb: 0 0 0\nW:\n1 2 3\n4 5 6\n"
      "mcirbm-rbm v1\nrbm\n2 2\na: 0 0\nb: 0 0\nW:\n1 2\n3 4\n");
  auto loaded = api::Model::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find(
                "layer 1: 2 visible units do not match the 3 hidden units "
                "of layer 0"),
            std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace mcirbm::core
