#include "rbm/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "rbm/grbm.h"
#include "rbm/rbm.h"

namespace mcirbm::rbm {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/rbm_serialize_test.txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static RbmConfig Config() {
    RbmConfig cfg;
    cfg.num_visible = 5;
    cfg.num_hidden = 3;
    cfg.seed = 11;
    return cfg;
  }

  std::string path_;
};

TEST_F(SerializeTest, RoundTripPreservesParameters) {
  Rbm original(Config());
  // Perturb parameters so they differ from a fresh init.
  (*original.mutable_weights())(2, 1) = 0.123456789012345;
  (*original.mutable_visible_bias())[4] = -2.5;
  (*original.mutable_hidden_bias())[0] = 1e-7;

  ASSERT_TRUE(SaveParameters(original, path_).ok());

  RbmConfig cfg = Config();
  cfg.seed = 999;  // different init, will be overwritten by load
  Rbm restored(cfg);
  ASSERT_TRUE(LoadParameters(path_, &restored).ok());
  EXPECT_TRUE(restored.weights().AllClose(original.weights(), 0));
  EXPECT_EQ(restored.visible_bias(), original.visible_bias());
  EXPECT_EQ(restored.hidden_bias(), original.hidden_bias());
}

TEST_F(SerializeTest, GrbmParametersLoadIntoRbmShapeMatch) {
  // The format stores the model name informationally; shapes must match.
  Grbm g(Config());
  ASSERT_TRUE(SaveParameters(g, path_).ok());
  Rbm r(Config());
  EXPECT_TRUE(LoadParameters(path_, &r).ok());
  EXPECT_TRUE(r.weights().AllClose(g.weights(), 0));
}

TEST_F(SerializeTest, ShapeMismatchRejected) {
  Rbm original(Config());
  ASSERT_TRUE(SaveParameters(original, path_).ok());
  RbmConfig other = Config();
  other.num_hidden = 4;
  Rbm wrong(other);
  const Status s = LoadParameters(path_, &wrong);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, BadMagicRejected) {
  std::ofstream out(path_);
  out << "not-an-rbm-file\n";
  out.close();
  Rbm model(Config());
  const Status s = LoadParameters(path_, &model);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST_F(SerializeTest, TruncatedFileRejected) {
  Rbm original(Config());
  ASSERT_TRUE(SaveParameters(original, path_).ok());
  // Truncate the file in the middle of the W block.
  std::ifstream in(path_);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_);
  out << content.substr(0, content.size() * 2 / 3);
  out.close();
  Rbm model(Config());
  EXPECT_FALSE(LoadParameters(path_, &model).ok());
}

// A diverged model writes "-nan", which the loader cannot read back; the
// error names the block and the entry that failed, not the next tag.
TEST_F(SerializeTest, UnreadableValueNamesItsBlockAndEntry) {
  const std::string header = std::string(kRbmMagic) + "\ngrbm\n2 2\n";
  const struct {
    std::string body;
    std::string expected;
  } cases[] = {
      {"a: 0.5 -nan\nb: 1 2\nW:\n1 2\n3 4\n", "block 'a:' entry 1"},
      {"a: 0.5 1\nb: 1 2\nW:\n1 2\n-nan 4\n", "block 'W:' entry 2"},
  };
  RbmConfig cfg;
  cfg.num_visible = 2;
  cfg.num_hidden = 2;
  for (const auto& c : cases) {
    std::istringstream in(header + c.body);
    Rbm model(cfg);
    const Status s = LoadParameters(in, &model);
    ASSERT_FALSE(s.ok()) << c.body;
    EXPECT_EQ(s.code(), StatusCode::kParseError);
    EXPECT_NE(s.message().find(c.expected), std::string::npos)
        << s.message();
    std::istringstream again(header + c.body);
    const auto loaded = LoadInferenceModel(again, "model.txt");
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find(c.expected), std::string::npos)
        << loaded.status().message();
  }
}

TEST_F(SerializeTest, MissingFileIsIoError) {
  Rbm model(Config());
  const Status s = LoadParameters("/no/such/params.txt", &model);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace mcirbm::rbm
