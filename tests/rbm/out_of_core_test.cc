// Out-of-core training parity: Model::TrainFromSource streaming
// minibatches from an mmap-backed binary artifact must be bit-identical
// to Model::Train on the materialized matrix — at every thread count, in
// both determinism modes. This is the contract that makes the binary
// format and chunked ingestion safe to use for the paper benches.
#include "api/model.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/binary_io.h"
#include "data/io.h"
#include "data/source.h"
#include "data/synthetic.h"
#include "parallel/thread_pool.h"

namespace mcirbm {
namespace {

data::Dataset MakeDataset() {
  data::GaussianMixtureSpec spec;
  spec.name = "ooc";
  spec.num_classes = 3;
  spec.num_instances = 60;
  spec.num_features = 6;
  return data::GenerateGaussianMixture(spec, 21);
}

core::PipelineConfig MakeConfig(core::ModelKind kind, int threads,
                                bool deterministic) {
  core::PipelineConfig config;
  config.model = kind;
  config.rbm.num_hidden = 8;
  config.rbm.epochs = 4;
  config.rbm.batch_size = 16;
  config.rbm.learning_rate = kind == core::ModelKind::kGrbm ? 1e-3 : 0.05;
  config.rbm.seed = 3;
  // Train applies config.parallel via ApplyParallelConfig, so the
  // execution-engine settings must travel through the config, not through
  // direct parallel::SetNumThreads calls.
  config.parallel.num_threads = threads;
  config.parallel.deterministic = deterministic;
  return config;
}

void ExpectBitIdentical(const api::Model& a, const api::Model& b,
                        const linalg::Matrix& x) {
  const rbm::RbmBase& ea = a.layer(0);
  const rbm::RbmBase& eb = b.layer(0);
  ASSERT_EQ(ea.weights().rows(), eb.weights().rows());
  ASSERT_EQ(ea.weights().cols(), eb.weights().cols());
  for (std::size_t i = 0; i < ea.weights().size(); ++i) {
    ASSERT_EQ(ea.weights().data()[i], eb.weights().data()[i])
        << "weight " << i;
  }
  ASSERT_EQ(ea.visible_bias(), eb.visible_bias());
  ASSERT_EQ(ea.hidden_bias(), eb.hidden_bias());

  auto fa = a.Transform(x);
  auto fb = b.Transform(x);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  for (std::size_t i = 0; i < fa.value().size(); ++i) {
    ASSERT_EQ(fa.value().data()[i], fb.value().data()[i]);
  }
}

class OutOfCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/out_of_core_test.bin";
    dataset_ = MakeDataset();
    auto source = data::MakeInMemorySource(dataset_, {});
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    ASSERT_TRUE(data::ConvertSourceToBinary(*source.value(), path_).ok());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    // Restore the global execution engine for later tests.
    parallel::SetNumThreads(0);
    parallel::SetDeterministic(parallel::DefaultDeterministic());
  }
  std::string path_;
  data::Dataset dataset_;
};

TEST_F(OutOfCoreTest, GrbmParityAcrossThreadsAndDeterminismModes) {
  for (const bool deterministic : {true, false}) {
    for (const int threads : {1, 2, 4}) {
      const auto config =
          MakeConfig(core::ModelKind::kGrbm, threads, deterministic);
      auto in_memory = api::Model::Train(dataset_.x, config, 7);
      ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

      data::DataSourceConfig source_config;
      source_config.max_resident_rows = 16;
      auto source = data::OpenMmapSource(path_, "ooc", source_config);
      ASSERT_TRUE(source.ok()) << source.status().ToString();
      auto streamed =
          api::Model::TrainFromSource(*source.value(), config, 7);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " deterministic=" + std::to_string(deterministic));
      ExpectBitIdentical(in_memory.value(), streamed.value(), dataset_.x);
    }
  }
}

TEST_F(OutOfCoreTest, BinaryRbmParity) {
  const auto config = MakeConfig(core::ModelKind::kRbm, 2, true);
  auto in_memory = api::Model::Train(dataset_.x, config, 7);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  data::DataSourceConfig source_config;
  source_config.max_resident_rows = 10;
  auto source = data::OpenMmapSource(path_, "ooc", source_config);
  ASSERT_TRUE(source.ok());
  auto streamed = api::Model::TrainFromSource(*source.value(), config, 7);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectBitIdentical(in_memory.value(), streamed.value(), dataset_.x);
}

TEST_F(OutOfCoreTest, InMemorySourceParity) {
  const auto config = MakeConfig(core::ModelKind::kGrbm, 1, true);
  auto in_memory = api::Model::Train(dataset_.x, config, 7);
  ASSERT_TRUE(in_memory.ok());
  auto source = data::MakeInMemorySource(dataset_, {});
  ASSERT_TRUE(source.ok());
  auto streamed = api::Model::TrainFromSource(*source.value(), config, 7);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectBitIdentical(in_memory.value(), streamed.value(), dataset_.x);
}

TEST_F(OutOfCoreTest, SlsModelRejectsNonDenseSource) {
  const auto config = MakeConfig(core::ModelKind::kSlsGrbm, 1, true);
  auto source = data::OpenMmapSource(path_, "ooc", {});
  ASSERT_TRUE(source.ok());
  auto streamed = api::Model::TrainFromSource(*source.value(), config, 7);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(OutOfCoreTest, SequentialSourceRejected) {
  const std::string csv = ::testing::TempDir() + "/out_of_core_test.csv";
  ASSERT_TRUE(data::SaveDatasetCsv(dataset_, csv).ok());
  auto source = data::OpenCsvSource(csv, "ooc", {});
  ASSERT_TRUE(source.ok());
  const auto config = MakeConfig(core::ModelKind::kGrbm, 1, true);
  auto streamed = api::Model::TrainFromSource(*source.value(), config, 7);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(streamed.status().message().find("dataset convert"),
            std::string::npos);
  std::remove(csv.c_str());
}

}  // namespace
}  // namespace mcirbm
