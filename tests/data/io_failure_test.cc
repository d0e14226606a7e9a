// Failure-injection tests for the dataset CSV loader and the dataset
// writers: every malformed input and every failed write must produce a
// clean Status, never a crash, a silently wrong dataset or a false Ok.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "data/binary_io.h"
#include "data/io.h"
#include "data/source.h"

namespace mcirbm::data {
namespace {

class IoFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/io_failure_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(IoFailureTest, EmptyFileFails) {
  WriteFile("");
  EXPECT_FALSE(LoadDatasetCsv(path_, "t").ok());
}

TEST_F(IoFailureTest, HeaderOnlyFails) {
  WriteFile("f0,f1,label\n");
  EXPECT_FALSE(LoadDatasetCsv(path_, "t").ok());
}

TEST_F(IoFailureTest, RaggedRowFails) {
  WriteFile("f0,f1,label\n1.0,2.0,0\n1.0,0\n");
  EXPECT_FALSE(LoadDatasetCsv(path_, "t").ok());
}

TEST_F(IoFailureTest, ExtraColumnRowFails) {
  WriteFile("f0,f1,label\n1.0,2.0,0\n1.0,2.0,3.0,0\n");
  EXPECT_FALSE(LoadDatasetCsv(path_, "t").ok());
}

TEST_F(IoFailureTest, NonNumericFeatureFails) {
  WriteFile("f0,f1,label\n1.0,banana,0\n");
  EXPECT_FALSE(LoadDatasetCsv(path_, "t").ok());
}

TEST_F(IoFailureTest, BlankLineInMiddleFails) {
  WriteFile("f0,f1,label\n1.0,2.0,0\n\n3.0,4.0,1\n");
  const auto result = LoadDatasetCsv(path_, "t");
  // Either a clean parse error or the blank line is skipped — but never
  // a half-read dataset with mismatched rows/labels.
  if (result.ok()) {
    EXPECT_EQ(result.value().x.rows(), result.value().labels.size());
  }
}

TEST_F(IoFailureTest, TrailingNewlineAccepted) {
  WriteFile("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n");
  const auto result = LoadDatasetCsv(path_, "t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().x.rows(), 2u);
}

TEST_F(IoFailureTest, ScientificNotationAndNegativesRoundTrip) {
  WriteFile("f0,f1,label\n-1.5e-8,2.25e6,0\n3.125,-4.75,1\n");
  const auto result = LoadDatasetCsv(path_, "t");
  ASSERT_TRUE(result.ok());
  const Dataset& ds = result.value();
  EXPECT_DOUBLE_EQ(ds.x(0, 0), -1.5e-8);
  EXPECT_DOUBLE_EQ(ds.x(0, 1), 2.25e6);
  EXPECT_DOUBLE_EQ(ds.x(1, 1), -4.75);
}

TEST_F(IoFailureTest, FractionalLabelFails) {
  WriteFile("f0,f1,label\n1.0,2.0,0.5\n");
  EXPECT_FALSE(LoadDatasetCsv(path_, "t").ok());
}

TEST_F(IoFailureTest, SaveToUnwritablePathFails) {
  Dataset ds;
  ds.name = "t";
  ds.x = linalg::Matrix(1, 2);
  ds.labels = {0};
  ds.num_classes = 1;
  EXPECT_FALSE(
      SaveDatasetCsv(ds, "/nonexistent-dir-xyz/file.csv").ok());
}

// A 3-row dataset fits in the stream buffer, so only the final flush can
// see the full device; the writer must check it before reporting Ok.
TEST_F(IoFailureTest, ConvertToFullDeviceIsIoError) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  Dataset ds;
  ds.name = "t";
  ds.x = linalg::Matrix(3, 2, 0.5);
  ds.labels = {0, 1, 0};
  ds.num_classes = 2;
  auto source = MakeInMemorySource(std::move(ds), {});
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  const Status status = ConvertSourceToBinary(*source.value(), "/dev/full");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace mcirbm::data
