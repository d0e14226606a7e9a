// The streaming DataSource layer: chunked iteration, random access,
// format round-trips (csv <-> mcirbm-data binary), the libsvm loader, and
// the string-spec loader registry. The round-trip tests compare *bytes*,
// not values — the binary artifact and the CSV writer's %.17g cells
// make csv -> binary -> csv reproduce the original file exactly.
#include "data/source.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/binary_io.h"
#include "data/dataset.h"
#include "data/io.h"
#include "data/loaders.h"
#include "data/paper_datasets.h"
#include "data/synthetic.h"

namespace mcirbm::data {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Writes `dataset` as mcirbm-data v1 through the one binary writer.
Status SaveBinary(const Dataset& dataset, const std::string& path) {
  auto source = MakeInMemorySource(dataset, {});
  if (!source.ok()) return source.status();
  return ConvertSourceToBinary(*source.value(), path);
}

Dataset SmallDataset() {
  GaussianMixtureSpec spec;
  spec.name = "src";
  spec.num_classes = 3;
  spec.num_instances = 23;  // not a multiple of any chunk size below
  spec.num_features = 4;
  return GenerateGaussianMixture(spec, 17);
}

class DataSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base = ::testing::TempDir() + "/source_test";
    csv_path_ = base + ".csv";
    bin_path_ = base + ".bin";
    csv2_path_ = base + "_rt.csv";
    libsvm_path_ = base + ".libsvm";
  }
  void TearDown() override {
    for (const auto& p : {csv_path_, bin_path_, csv2_path_, libsvm_path_}) {
      std::remove(p.c_str());
    }
  }
  std::string csv_path_, bin_path_, csv2_path_, libsvm_path_;
};

void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_instances(), b.num_instances());
  ASSERT_EQ(a.num_features(), b.num_features());
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_EQ(a.labels, b.labels);
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    ASSERT_EQ(a.x.data()[i], b.x.data()[i]) << "feature " << i;
  }
}

TEST_F(DataSourceTest, CsvBinaryCsvRoundTripIsByteIdentical) {
  const Dataset original = SmallDataset();
  ASSERT_TRUE(SaveDatasetCsv(original, csv_path_).ok());

  // csv -> binary (streamed in 7-row chunks) -> csv.
  DataSourceConfig config;
  config.max_resident_rows = 7;
  auto csv_source = OpenCsvSource(csv_path_, "src", config);
  ASSERT_TRUE(csv_source.ok()) << csv_source.status().ToString();
  ASSERT_TRUE(
      ConvertSourceToBinary(*csv_source.value(), bin_path_).ok());
  auto restored = LoadDatasetBinary(bin_path_, "src");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(SaveDatasetCsv(restored.value(), csv2_path_).ok());

  EXPECT_EQ(ReadFileBytes(csv_path_), ReadFileBytes(csv2_path_));
}

TEST_F(DataSourceTest, MmapLoaderMatchesCsvLoader) {
  const Dataset original = SmallDataset();
  ASSERT_TRUE(SaveDatasetCsv(original, csv_path_).ok());
  ASSERT_TRUE(SaveBinary(original, bin_path_).ok());

  auto from_csv = LoadDatasetCsv(csv_path_, "src");
  ASSERT_TRUE(from_csv.ok());
  auto from_bin = LoadDatasetBinary(bin_path_, "src");
  ASSERT_TRUE(from_bin.ok());
  ExpectSameDataset(from_csv.value(), from_bin.value());
  // The binary path is lossless, so it reproduces the original bits too.
  ExpectSameDataset(original, from_bin.value());
}

TEST_F(DataSourceTest, ChunkedIterationMatchesMaterialize) {
  const Dataset original = SmallDataset();
  ASSERT_TRUE(SaveBinary(original, bin_path_).ok());
  for (const std::size_t chunk_rows : {std::size_t{1}, std::size_t{7},
                                       std::size_t{23}, std::size_t{100}}) {
    DataSourceConfig config;
    config.max_resident_rows = chunk_rows;
    auto source = OpenMmapSource(bin_path_, "bin", config);
    ASSERT_TRUE(source.ok());
    std::vector<double> streamed_x;
    std::vector<int> streamed_labels;
    std::size_t next_row = 0;
    const Status status =
        source.value()->ForEachChunk([&](const ChunkSpec& chunk) {
          EXPECT_EQ(chunk.row_begin, next_row);
          EXPECT_LE(chunk.rows, chunk_rows);
          next_row += chunk.rows;
          streamed_x.insert(streamed_x.end(), chunk.x,
                            chunk.x + chunk.rows * chunk.cols);
          streamed_labels.insert(streamed_labels.end(), chunk.labels,
                                 chunk.labels + chunk.rows);
          return Status::Ok();
        });
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(next_row, original.num_instances());
    EXPECT_EQ(streamed_labels, original.labels);
    ASSERT_EQ(streamed_x.size(), original.x.size());
    for (std::size_t i = 0; i < streamed_x.size(); ++i) {
      ASSERT_EQ(streamed_x[i], original.x.data()[i]);
    }
  }
}

TEST_F(DataSourceTest, MmapGatherRowsMatchesDirectRows) {
  const Dataset original = SmallDataset();
  ASSERT_TRUE(SaveBinary(original, bin_path_).ok());
  auto source = OpenMmapSource(bin_path_, "bin", {});
  ASSERT_TRUE(source.ok());
  EXPECT_TRUE(source.value()->SupportsRandomAccess());

  const std::vector<std::size_t> indices = {22, 0, 7, 7, 13};
  linalg::Matrix gathered;
  std::vector<int> labels;
  ASSERT_TRUE(
      source.value()->GatherRows(indices, &gathered, &labels).ok());
  ASSERT_EQ(gathered.rows(), indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(labels[i], original.labels[indices[i]]);
    for (std::size_t j = 0; j < original.num_features(); ++j) {
      ASSERT_EQ(gathered(i, j), original.x(indices[i], j));
    }
  }

  linalg::Matrix out;
  const Status bad = source.value()->GatherRows({23}, &out, nullptr);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST_F(DataSourceTest, SequentialCsvSourceRejectsGatherRows) {
  ASSERT_TRUE(SaveDatasetCsv(SmallDataset(), csv_path_).ok());
  auto source = OpenCsvSource(csv_path_, "src", {});
  ASSERT_TRUE(source.ok());
  EXPECT_FALSE(source.value()->SupportsRandomAccess());
  linalg::Matrix out;
  const Status status = source.value()->GatherRows({0}, &out, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("dataset convert"), std::string::npos);
}

TEST_F(DataSourceTest, InMemorySourceIsZeroCopyAndRandomAccess) {
  const Dataset original = SmallDataset();
  auto source = MakeInMemorySource(original, {});
  ASSERT_TRUE(source.ok());
  EXPECT_TRUE(source.value()->SupportsRandomAccess());
  ASSERT_NE(source.value()->DenseView(), nullptr);
  // Zero-copy: the chunk points into the source's own dataset.
  const Status status =
      source.value()->ForEachChunk([&](const ChunkSpec& chunk) {
        EXPECT_EQ(chunk.x, source.value()->DenseView()->x.data());
        EXPECT_EQ(chunk.rows, original.num_instances());
        return Status::Ok();
      });
  ASSERT_TRUE(status.ok());
  auto materialized = source.value()->Materialize();
  ASSERT_TRUE(materialized.ok());
  ExpectSameDataset(original, materialized.value());
}

TEST_F(DataSourceTest, InMemorySourceRejectsInvalidDataset) {
  Dataset bad = SmallDataset();
  bad.labels.pop_back();
  auto source = MakeInMemorySource(std::move(bad), {});
  EXPECT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
}

// --- CSV hardening -------------------------------------------------------

TEST_F(DataSourceTest, CsvAcceptsCrlfQuotedHeaderAndTrailingBlank) {
  std::ofstream out(csv_path_, std::ios::binary);
  out << "\"f0\",\"f1\",\"label\"\r\n"
      << "1.5,2.5,0\r\n"
      << "3.5,4.5,1\r\n"
      << "\r\n";
  out.close();
  auto loaded = LoadDatasetCsv(csv_path_, "crlf");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_instances(), 2u);
  EXPECT_EQ(loaded.value().num_features(), 2u);
  EXPECT_EQ(loaded.value().labels, (std::vector<int>{0, 1}));
  EXPECT_EQ(loaded.value().x(1, 0), 3.5);
}

TEST_F(DataSourceTest, CsvMissingLabelColumnNamesFileAndLine) {
  std::ofstream out(csv_path_);
  out << "f0\n1.0\n2.0\n";
  out.close();
  auto loaded = LoadDatasetCsv(csv_path_, "narrow");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find(csv_path_ + ":2"),
            std::string::npos)
      << loaded.status().message();
  // The streaming source rejects it identically.
  auto source = OpenCsvSource(csv_path_, "narrow", {});
  ASSERT_FALSE(source.ok());
  EXPECT_NE(source.status().message().find(csv_path_ + ":2"),
            std::string::npos);
}

TEST_F(DataSourceTest, CsvSourceRejectsNonFiniteFeature) {
  std::ofstream out(csv_path_);
  out << "f0,f1,label\n1.0,nan,0\n";
  out.close();
  auto source = OpenCsvSource(csv_path_, "nan", {});
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kParseError);
  EXPECT_NE(source.status().message().find(csv_path_ + ":2"),
            std::string::npos);
}

TEST_F(DataSourceTest, CsvNegativeLabelFails) {
  std::ofstream out(csv_path_);
  out << "f0,label\n1.0,-2\n";
  out.close();
  auto loaded = LoadDatasetCsv(csv_path_, "neg");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(DataSourceTest, EmptyCsvFails) {
  std::ofstream out(csv_path_);
  out << "f0,label\n";
  out.close();
  auto loaded = LoadDatasetCsv(csv_path_, "empty");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("no data rows"),
            std::string::npos);
}

TEST_F(DataSourceTest, CsvNonFiniteLabelIsNonIntegerLabel) {
  for (const char* label : {"nan", "-nan", "inf"}) {
    SCOPED_TRACE(label);
    std::ofstream out(csv_path_);
    out << "f0,label\n1.0,0\n2.0," << label << "\n3.0,1\n";
    out.close();
    auto loaded = LoadDataset(csv_path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find(csv_path_ +
                                             ":3: non-integer label"),
              std::string::npos)
        << loaded.status().message();
    auto source = OpenCsvSource(csv_path_, "label", {});
    ASSERT_FALSE(source.ok());
    EXPECT_EQ(source.status().code(), StatusCode::kParseError);
    EXPECT_NE(source.status().message().find(csv_path_ +
                                             ":3: non-integer label"),
              std::string::npos)
        << source.status().message();
  }
}

// A NaN feature fails in the row check, naming its line, on both readers.
TEST_F(DataSourceTest, CsvNanFeatureNamesFileAndLine) {
  std::ofstream out(csv_path_);
  out << "f0,f1,label\n1.0,2.0,0\n1.0,nan,1\n";
  out.close();
  auto loaded = LoadDatasetCsv(csv_path_, "nan");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find(
                csv_path_ + ":3: non-finite feature in column 1"),
            std::string::npos)
      << loaded.status().message();
}

// --- A CSV that changes after OpenCsvSource --------------------------------

// Writes `rows` rows of `features` feature columns plus a label column.
void WriteLabeledCsv(const std::string& path, int rows, int features) {
  std::ofstream out(path);
  for (int j = 0; j < features; ++j) out << "f" << j << ",";
  out << "label\n";
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < features; ++j) out << i + 0.25 * j << ",";
    out << i % 2 << "\n";
  }
}

// Each case rewrites a 4-row, 3-feature file after Open; `line` is the
// line the error names.
struct ChangedCsv {
  const char* what;
  int rows;
  int features;
  int line;
};

const ChangedCsv kChangedCsvs[] = {
    {"grown to 1000 rows", 1000, 3, 6},  // row 5 of 4, on line 6
    {"narrower", 4, 2, 2},               // the first row's width
    {"shrunk to 3 rows", 3, 3, 5},       // the scan ends at line 4
};

void ExpectChanged(const Status& status, const std::string& path, int line) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find(path + ":" + std::to_string(line) +
                                  ": file changed since it was opened"),
            std::string::npos)
      << status.message();
}

TEST_F(DataSourceTest, CsvChangedAfterOpenFailsMaterialize) {
  for (const ChangedCsv& change : kChangedCsvs) {
    SCOPED_TRACE(change.what);
    WriteLabeledCsv(csv_path_, 4, 3);
    auto source = OpenCsvSource(csv_path_, "changed", {});
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    WriteLabeledCsv(csv_path_, change.rows, change.features);
    ExpectChanged(source.value()->Materialize().status(), csv_path_,
                  change.line);
  }
}

TEST_F(DataSourceTest, CsvChangedAfterOpenFailsBoundedChunks) {
  DataSourceConfig config;
  config.max_resident_rows = 2;
  for (const ChangedCsv& change : kChangedCsvs) {
    SCOPED_TRACE(change.what);
    WriteLabeledCsv(csv_path_, 4, 3);
    auto source = OpenCsvSource(csv_path_, "changed", config);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    WriteLabeledCsv(csv_path_, change.rows, change.features);
    // Every chunk delivered before the error lies inside the opened shape.
    const Status status =
        source.value()->ForEachChunk([&](const ChunkSpec& chunk) {
          EXPECT_LE(chunk.rows, 2u);
          EXPECT_LE(chunk.row_begin + chunk.rows, 4u);
          EXPECT_EQ(chunk.cols, 3u);
          return Status::Ok();
        });
    ExpectChanged(status, csv_path_, change.line);
  }
}

// --- Binary corruption ---------------------------------------------------

TEST_F(DataSourceTest, TruncatedBinaryFails) {
  const Dataset original = SmallDataset();
  ASSERT_TRUE(SaveBinary(original, bin_path_).ok());
  const std::string bytes = ReadFileBytes(bin_path_);
  std::ofstream out(bin_path_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size() - 12));
  out.close();
  auto source = OpenMmapSource(bin_path_, "bin", {});
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kParseError);
}

TEST_F(DataSourceTest, BadMagicFails) {
  std::ofstream out(bin_path_, std::ios::binary);
  out << "not-a-mcirbm-data-file-at-all------------";
  out.close();
  auto source = OpenMmapSource(bin_path_, "bin", {});
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kParseError);
  EXPECT_NE(source.status().message().find("magic"), std::string::npos);
}

// --- libsvm --------------------------------------------------------------

TEST_F(DataSourceTest, LibsvmDensifiesAndMapsLabels) {
  std::ofstream out(libsvm_path_);
  out << "# comment line\n"
      << "+1 1:0.5 3:1.25\r\n"
      << "-1 2:2.0\n"
      << "\n"
      << "-1 1:4.0 2:0.25 3:-1.5\n";
  out.close();
  auto loaded = LoadDatasetLibsvm(libsvm_path_, "svm");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& ds = loaded.value();
  EXPECT_EQ(ds.num_instances(), 3u);
  EXPECT_EQ(ds.num_features(), 3u);
  EXPECT_EQ(ds.num_classes, 2);
  // Ascending label order: -1 -> 0, +1 -> 1.
  EXPECT_EQ(ds.labels, (std::vector<int>{1, 0, 0}));
  EXPECT_EQ(ds.x(0, 0), 0.5);
  EXPECT_EQ(ds.x(0, 1), 0.0);  // omitted -> zero
  EXPECT_EQ(ds.x(0, 2), 1.25);
  EXPECT_EQ(ds.x(1, 1), 2.0);
  EXPECT_EQ(ds.x(2, 2), -1.5);
}

TEST_F(DataSourceTest, LibsvmRejectsZeroBasedIndex) {
  std::ofstream out(libsvm_path_);
  out << "1 0:1.0\n";
  out.close();
  auto loaded = LoadDatasetLibsvm(libsvm_path_, "svm");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find(libsvm_path_ + ":1"),
            std::string::npos);
}

TEST_F(DataSourceTest, LibsvmRejectsMalformedToken) {
  std::ofstream out(libsvm_path_);
  out << "1 1:0.5\n0 oops\n";
  out.close();
  auto loaded = LoadDatasetLibsvm(libsvm_path_, "svm");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(libsvm_path_ + ":2"),
            std::string::npos);
}

// --- loader registry -----------------------------------------------------

TEST_F(DataSourceTest, RegistryInfersSchemesFromPaths) {
  const Dataset original = SmallDataset();
  ASSERT_TRUE(SaveDatasetCsv(original, csv_path_).ok());
  ASSERT_TRUE(SaveBinary(original, bin_path_).ok());

  for (const std::string& spec :
       {csv_path_, "csv:" + csv_path_, bin_path_, "bin:" + bin_path_}) {
    auto loaded = LoadDataset(spec);
    ASSERT_TRUE(loaded.ok()) << spec << ": " << loaded.status().ToString();
    ExpectSameDataset(original, loaded.value());
  }
}

TEST_F(DataSourceTest, RegistrySniffsBinaryMagicWithoutExtension) {
  const Dataset original = SmallDataset();
  const std::string extless = ::testing::TempDir() + "/source_test_noext";
  ASSERT_TRUE(SaveBinary(original, extless).ok());
  auto loaded = LoadDataset(extless);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDataset(original, loaded.value());
  std::remove(extless.c_str());
}

TEST_F(DataSourceTest, RegistrySynthSpecMatchesGenerator) {
  DataSourceConfig config;
  config.synth_seed = 7;
  auto loaded = LoadDataset("synth:msra:0", config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDataset(GenerateMsraLike(0, 7), loaded.value());
  // An explicit spec seed beats the config seed.
  auto seeded = LoadDataset("synth:uci:1:9", config);
  ASSERT_TRUE(seeded.ok());
  ExpectSameDataset(GenerateUciLike(1, 9), seeded.value());
}

TEST_F(DataSourceTest, RegistryRejectsBadSpecs) {
  EXPECT_FALSE(OpenDataSource("synth:msra:9999").ok());
  EXPECT_FALSE(OpenDataSource("synth:nope:0").ok());
  EXPECT_FALSE(OpenDataSource("/no/such/file.csv").ok());
}

// --- determinism across sources ------------------------------------------

TEST_F(DataSourceTest, StratifiedSubsampleIsIdenticalAcrossSources) {
  const Dataset original = SmallDataset();
  ASSERT_TRUE(SaveDatasetCsv(original, csv_path_).ok());
  ASSERT_TRUE(SaveBinary(original, bin_path_).ok());

  DataSourceConfig chunked;
  chunked.max_resident_rows = 5;
  auto csv_source = OpenCsvSource(csv_path_, "src", chunked);
  ASSERT_TRUE(csv_source.ok());
  auto bin_source = OpenMmapSource(bin_path_, "src", chunked);
  ASSERT_TRUE(bin_source.ok());

  auto from_csv = csv_source.value()->Materialize();
  auto from_bin = bin_source.value()->Materialize();
  ASSERT_TRUE(from_csv.ok());
  ASSERT_TRUE(from_bin.ok());
  const Dataset a = StratifiedSubsample(from_csv.value(), 10, 99);
  const Dataset b = StratifiedSubsample(from_bin.value(), 10, 99);
  const Dataset c = StratifiedSubsample(original, 10, 99);
  ExpectSameDataset(a, b);
  ExpectSameDataset(a, c);
}

}  // namespace
}  // namespace mcirbm::data
