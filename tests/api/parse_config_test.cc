// ParseConfig / ParsePipelineSpec error paths and Model::Load rejection of
// malformed, truncated, and too-new model files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/api.h"

namespace mcirbm::api {
namespace {

TEST(ParseConfigTest, AppliesKeysOverBase) {
  core::PipelineConfig base;
  base.rbm.num_hidden = 7;
  auto config = ParseConfig(
      "model = sls-rbm\n"
      "# comment line\n"
      "rbm.epochs = 3\n"
      "sls.eta = 0.25\n"
      "supervision.voters = dp,kmeans*2\n",
      base);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config.value().model, core::ModelKind::kSlsRbm);
  EXPECT_EQ(config.value().rbm.num_hidden, 7);  // untouched base value
  EXPECT_EQ(config.value().rbm.epochs, 3);
  EXPECT_DOUBLE_EQ(config.value().sls.eta, 0.25);
  ASSERT_EQ(config.value().supervision.voters.size(), 2u);
  EXPECT_EQ(config.value().supervision.voters[1].count, 2);
}

TEST(ParseConfigTest, LaterLinesWin) {
  auto config = ParseConfig("rbm.epochs = 3\nrbm.epochs = 9\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().rbm.epochs, 9);
}

TEST(ParseConfigTest, UnknownKeyIsNotFoundWithLineNumber) {
  auto config = ParseConfig("rbm.epochs = 3\nrbm.bogus = 1\n");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kNotFound);
  EXPECT_NE(config.status().message().find("line 2"), std::string::npos)
      << config.status().ToString();
}

TEST(ParseConfigTest, MalformedValueIsParseError) {
  auto config = ParseConfig("rbm.epochs = three\n");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kParseError);
}

TEST(ParseConfigTest, LineWithoutEqualsRejected) {
  auto config = ParseConfig("just some words\n");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kParseError);
}

TEST(ParseConfigTest, UnknownModelNameRejected) {
  auto config = ParseConfig("model = autoencoder\n");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kNotFound);
}

TEST(ParseConfigTest, BadEnumValuesRejected) {
  EXPECT_EQ(ParseConfig("rbm.weight_init = xavier\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseConfig("supervision.strategy = plurality\n").status().code(),
            StatusCode::kParseError);
}

TEST(ParsePipelineSpecTest, RequiresExactlyOneDataSource) {
  auto neither = ParsePipelineSpec("rbm.epochs = 2\n");
  ASSERT_FALSE(neither.ok());
  EXPECT_EQ(neither.status().code(), StatusCode::kInvalidArgument);

  // `data` is the one source key; like every key, its later line wins.
  auto twice = ParsePipelineSpec("data = x.csv\ndata = synth:uci:0\n");
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();
  EXPECT_EQ(twice.value().data_spec, "synth:uci:0");
}

TEST(ParsePipelineSpecTest, EachSettingHasOneSpelling) {
  // Retired aliases and legacy source keys are unknown, not synonyms.
  for (const char* line :
       {"data.path = x.csv", "data.family = uci", "data.index = 1",
        "rbm.lr = 0.01", "sls.scale = 10", "sls.use_fast_gradient = false"}) {
    auto spec =
        ParsePipelineSpec("data = synth:uci:0\n" + std::string(line) + "\n");
    EXPECT_EQ(spec.status().code(), StatusCode::kNotFound) << line;
  }
}

TEST(ParsePipelineSpecTest, ModelKeySelectsFamilyBaseConfig) {
  auto grbm = ParsePipelineSpec("data = synth:uci:0\nmodel = sls-grbm\n");
  ASSERT_TRUE(grbm.ok()) << grbm.status().ToString();
  auto rbm = ParsePipelineSpec("data = synth:uci:0\nmodel = sls-rbm\n");
  ASSERT_TRUE(rbm.ok()) << rbm.status().ToString();
  // The paper uses different family hyper-parameters; the spec should have
  // picked them up before any overrides.
  EXPECT_NE(grbm.value().config.rbm.learning_rate,
            rbm.value().config.rbm.learning_rate);
}

TEST(ParsePipelineSpecTest, RejectsBadSpecValues) {
  EXPECT_EQ(ParsePipelineSpec("data = synth:uci:0\ndata.transform = fft\n")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(
      ParsePipelineSpec("data = synth:uci:0\neval.clusterer = birch\n")
          .status()
          .code(),
      StatusCode::kNotFound);
  EXPECT_EQ(
      ParsePipelineSpec("data = synth:uci:0\ndata.max_instances = -5\n")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  // Keys whose 0 means "use the default" reject negatives instead of
  // reading them as 0.
  for (const char* key : {"supervision.clusters", "eval.k", "rbm.batch_size",
                          "parallel.threads"}) {
    const std::string prefix = "data = synth:uci:0\n" + std::string(key);
    auto negative = ParsePipelineSpec(prefix + " = -1\n");
    EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(negative.status().message().find("line 2"), std::string::npos)
        << negative.status().ToString();
    auto zero = ParsePipelineSpec(prefix + " = 0\n");
    EXPECT_TRUE(zero.ok()) << key << ": " << zero.status().ToString();
  }
}

TEST(ParsePipelineSpecFileTest, MissingFileIsIoError) {
  auto spec = ParsePipelineSpecFile("/nonexistent/run.cfg");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kIoError);
}

class ModelLoadErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/api_model_load_error_test.mcirbm";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& contents) {
    std::ofstream out(path_);
    out << contents;
  }

  std::string path_;
};

TEST_F(ModelLoadErrorTest, MissingFileIsIoError) {
  auto model = Model::Load("/nonexistent/model.mcirbm");
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kIoError);
}

TEST_F(ModelLoadErrorTest, EmptyFileRejected) {
  WriteFile("");
  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kParseError);
}

TEST_F(ModelLoadErrorTest, GarbageMagicRejected) {
  WriteFile("definitely not a model\n1 2 3\n");
  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kParseError);
}

// Each is rejected with ParseError; the message names what is wrong.
TEST_F(ModelLoadErrorTest, UnknownKindsAndOtherFormatsRejected) {
  const std::string payload =
      "mcirbm-rbm v1\nrbm\n2 2\na: 0 0\nb: 0 0\nW:\n1 2\n3 4\n";
  const struct {
    std::string contents;
    std::string expected;
  } cases[] = {
      {"mcirbm-model v1\nkind: banana\n" + payload,
       "unknown model kind 'banana'"},
      {"mcirbm-model v1\nkind: rbm,\n" + payload + payload,
       "unknown model kind ''"},
      // The kind list fixes the layer count both ways.
      {"mcirbm-model v1\nkind: rbm\n" + payload + payload,
       "data after the 1 listed layer(s)"},
      // A bare payload is not a model file.
      {payload, "bad model magic"},
      // Neither is the retired stack manifest.
      {"mcirbm-stack v1\n1\nrbm sigmoid .layer0\n", "bad model magic"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.contents);
    WriteFile(c.contents);
    auto model = Model::Load(path_);
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.status().code(), StatusCode::kParseError);
    EXPECT_NE(model.status().message().find(c.expected), std::string::npos)
        << model.status().ToString();
  }
}

// The 'kind:' entry and each payload's stored name must agree on the
// family: a grbm payload under 'kind: rbm' would otherwise load, report
// rbm and transform as a GRBM. The error names the offending layer.
TEST_F(ModelLoadErrorTest, PayloadFamilyMustMatchItsKind) {
  const auto payload = [](const char* name) {
    return std::string("mcirbm-rbm v1\n") + name +
           "\n2 2\na: 0 0\nb: 0 0\nW:\n1 2\n3 4\n";
  };
  const struct {
    std::string contents;
    std::string expected;
  } cases[] = {
      {"mcirbm-model v1\nkind: rbm\n" + payload("grbm"),
       path_ + ": payload family 'grbm' does not match kind 'rbm'"},
      {"mcirbm-model v1\nkind: sls-grbm\n" + payload("sls-rbm"),
       path_ + ": payload family 'rbm' does not match kind 'sls-grbm'"},
      {"mcirbm-model v1\nkind: grbm,rbm\n" + payload("grbm") +
           payload("sls-grbm"),
       path_ + " layer 1: payload family 'grbm' does not match kind 'rbm'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.contents);
    WriteFile(c.contents);
    auto model = Model::Load(path_);
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.status().code(), StatusCode::kParseError);
    EXPECT_NE(model.status().message().find(c.expected), std::string::npos)
        << model.status().ToString();
  }
  // Within a family the kind may name the sls variant of a plain payload
  // and the other way round: both transform the same.
  WriteFile("mcirbm-model v1\nkind: sls-grbm,rbm\n" + payload("grbm") +
            payload("sls-rbm"));
  auto model = Model::Load(path_);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model.value().kind(), "sls-grbm,rbm");
}

TEST_F(ModelLoadErrorTest, NewerFormatVersionRejected) {
  WriteFile("mcirbm-model v999\nkind: rbm\n");
  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

// Each out-of-range hyper-parameter comes back from Model::Train as
// InvalidArgument before any work starts, never as an abort.
TEST(PipelineValidationTest, BadCdKFromConfigIsStatusNotAbort) {
  const linalg::Matrix x(8, 3);
  for (const char* text :
       {"rbm.cd_k = 0\n", "rbm.learning_rate = -1\n", "rbm.epochs = -2\n",
        "rbm.hidden = 0\n", "model = sls-rbm\nsls.supervision_scale = -1\n",
        "model = sls-rbm\nsls.eta = 1\n"}) {
    SCOPED_TRACE(text);
    auto config = ParseConfig(text);
    ASSERT_TRUE(config.ok()) << config.status().ToString();
    auto model = Model::Train(x, config.value(), 1);
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
  }
}

// An evaluation k above the row count is InvalidArgument, checked before
// training; k-means and DP used to abort on it in a CHECK. k equal to the
// row count runs.
TEST(PipelineValidationTest, EvalKAboveRowCountIsInvalidArgument) {
  const std::string base =
      "data = synth:uci:0\nmodel = rbm\nrbm.epochs = 1\n";  // 306 rows
  for (const char* clusterer : {"kmeans", "dp"}) {
    SCOPED_TRACE(clusterer);
    auto spec = ParsePipelineSpec(base + "eval.k = 5000\neval.clusterer = " +
                                  clusterer + "\n");
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    const auto run = RunPipeline(spec.value());
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().message().find(
                  "k = 5000 exceeds the 306 input rows"),
              std::string::npos)
        << run.status().ToString();
  }
  auto at_rows = ParsePipelineSpec(base + "eval.k = 306\n");
  ASSERT_TRUE(at_rows.ok()) << at_rows.status().ToString();
  const auto run = RunPipeline(at_rows.value());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().eval_k, 306);
}

// The same check guards EvaluateFeatures, which serves op=eval requests.
TEST(PipelineValidationTest, EvaluateFeaturesRejectsKAboveRowCount) {
  const linalg::Matrix features(10, 2);
  const std::vector<int> labels(10, 0);
  EvalOptions options;
  options.k = 11;
  const auto result = EvaluateFeatures(features, labels, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("k = 11 exceeds the 10 input rows"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(ModelLoadErrorTest, MissingKindHeaderRejected) {
  WriteFile("mcirbm-model v1\n");
  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kParseError);
}

TEST_F(ModelLoadErrorTest, ImplausibleShapeRejectedNotAborted) {
  // A corrupted shape line must not overflow the int narrowing in
  // LoadInferenceModel or attempt a giant allocation.
  WriteFile("mcirbm-model v1\nkind: rbm\nmcirbm-rbm v1\nrbm\n"
            "2147483648 4\na: 0\nb: 0\nW:\n0\n");
  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kParseError);
}

TEST_F(ModelLoadErrorTest, TruncatedPayloadRejected) {
  // Train a real tiny model, save it, then chop the file mid-payload.
  linalg::Matrix x(12, 4);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      x(i, j) = static_cast<double>((i * 7 + j * 3) % 5) / 5.0;
    }
  }
  core::PipelineConfig config;
  config.model = core::ModelKind::kRbm;
  config.rbm.num_hidden = 3;
  config.rbm.epochs = 1;
  auto trained = Model::Train(x, config, 5);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  ASSERT_TRUE(trained.value().Save(path_).ok());

  std::string contents;
  {
    std::ifstream in(path_);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(contents.size(), 40u);
  WriteFile(contents.substr(0, contents.size() / 2));

  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());  // must not abort
}

}  // namespace
}  // namespace mcirbm::api
