// The single serving unit — a one-replica serve::Router — end to end over
// saved artifacts: submission by model path, evaluate parity, registry
// counters, hot reload, shutdown semantics, and concurrent clients (a
// ThreadSanitizer target). Multi-replica routing lives in router_test.cc.
#include "serve/router.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "data/synthetic.h"

namespace mcirbm::serve {
namespace {

data::Dataset TestDataset() {
  data::GaussianMixtureSpec spec;
  spec.name = "server";
  spec.num_classes = 2;
  spec.num_instances = 32;
  spec.num_features = 6;
  spec.separation = 6.0;
  return data::GenerateGaussianMixture(spec, 21);
}

linalg::Matrix RowOf(const linalg::Matrix& x, std::size_t r) {
  linalg::Matrix row(1, x.cols());
  std::memcpy(row.data(), x.data() + r * x.cols(),
              x.cols() * sizeof(double));
  return row;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = TestDataset();
    path_ = ::testing::TempDir() + "/server_model.mcirbm";
    core::PipelineConfig config;
    config.model = core::ModelKind::kGrbm;
    config.rbm.num_hidden = 5;
    config.rbm.epochs = 2;
    config.rbm.batch_size = 10;
    auto model = api::Model::Train(ds_.x, config, 33);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model.value().Save(path_).ok());
    reference_ = model.value().Transform(ds_.x).value();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  data::Dataset ds_;
  std::string path_;
  linalg::Matrix reference_;
};

TEST_F(ServerTest, ServesRowRequestsByModelPath) {
  Router server;
  ASSERT_EQ(server.replicas(), 1u);
  std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
  for (std::size_t r = 0; r < ds_.x.rows(); ++r) {
    futures.push_back(server.Submit(path_, RowOf(ds_.x, r)));
  }
  for (std::size_t r = 0; r < futures.size(); ++r) {
    auto slice = futures[r].get();
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    EXPECT_TRUE(slice.value().AllClose(RowOf(reference_, r), 0))
        << "row " << r;
  }
  const obs::MetricsSnapshot metrics = server.metrics_snapshot();
  EXPECT_EQ(metrics.CounterTotal("serve_requests_total"), ds_.x.rows());
  EXPECT_GE(metrics.CounterTotal("serve_batches_total"), 1u);
  // One disk load, every later submission a cache hit.
  EXPECT_EQ(metrics.CounterTotal("store_misses_total"), 1u);
  EXPECT_EQ(metrics.CounterTotal("store_hits_total"), ds_.x.rows() - 1);
}

TEST_F(ServerTest, EvaluateMatchesDirectModelEvaluate) {
  auto model = api::Model::Load(path_);
  ASSERT_TRUE(model.ok());
  auto reference = model.value().Evaluate(ds_.x, ds_.labels);
  ASSERT_TRUE(reference.ok());

  Router server;
  auto result = server.SubmitEvaluate(path_, ds_.x, ds_.labels).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().clusters_found,
            reference.value().clusters_found);
  EXPECT_DOUBLE_EQ(result.value().metrics.accuracy,
                   reference.value().metrics.accuracy);
  EXPECT_DOUBLE_EQ(result.value().metrics.nmi,
                   reference.value().metrics.nmi);
}

TEST_F(ServerTest, UnknownModelFailsFast) {
  Router server;
  auto missing =
      server.Submit(::testing::TempDir() + "/nope.mcirbm", RowOf(ds_.x, 0));
  auto result = missing.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(ServerTest, SubmitAfterShutdownIsUnavailable) {
  Router server;
  ASSERT_TRUE(server.Submit(path_, RowOf(ds_.x, 0)).get().ok());
  server.Shutdown();
  auto rejected = server.Submit(path_, RowOf(ds_.x, 1)).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
}

TEST_F(ServerTest, ReloadKeepsServingIdenticalArtifact) {
  Router server;
  ASSERT_TRUE(server.Submit(path_, RowOf(ds_.x, 0)).get().ok());
  ASSERT_TRUE(server.Reload(path_).ok());
  auto features = server.Submit(path_, RowOf(ds_.x, 1)).get();
  ASSERT_TRUE(features.ok());
  EXPECT_TRUE(features.value().AllClose(RowOf(reference_, 1), 0));
  EXPECT_EQ(server.metrics_snapshot().CounterTotal("store_reloads_total"),
            1u);
}

TEST_F(ServerTest, ReloadThenShutdownResolvesQueuedAndFreshExactlyOnce) {
  // Hot swap racing shutdown: a request queued against the old instance,
  // a Reload that swaps the artifact, a request on the new instance
  // (sealing the old queue), then an immediate Shutdown. Both futures
  // must resolve exactly once, each on the instance it was submitted
  // against.
  RouterConfig config;
  config.batcher.max_batch_rows = 100;           // only Shutdown flushes
  config.batcher.max_queue_micros = 60'000'000;
  Router server(config);
  auto queued = server.Submit(path_, RowOf(ds_.x, 0));
  // Replace the artifact on disk with a differently-seeded model so the
  // two instances are distinguishable by their outputs.
  core::PipelineConfig model_config;
  model_config.model = core::ModelKind::kGrbm;
  model_config.rbm.num_hidden = 5;
  model_config.rbm.epochs = 2;
  model_config.rbm.batch_size = 10;
  auto swapped = api::Model::Train(ds_.x, model_config, 77);
  ASSERT_TRUE(swapped.ok());
  const linalg::Matrix swapped_reference =
      swapped.value().Transform(ds_.x).value();
  ASSERT_TRUE(swapped.value().Save(path_).ok());
  ASSERT_TRUE(server.Reload(path_).ok());
  auto fresh = server.Submit(path_, RowOf(ds_.x, 1));
  server.Shutdown();
  auto old_features = queued.get();
  ASSERT_TRUE(old_features.ok()) << old_features.status().ToString();
  EXPECT_TRUE(old_features.value().AllClose(RowOf(reference_, 0), 0));
  auto new_features = fresh.get();
  ASSERT_TRUE(new_features.ok()) << new_features.status().ToString();
  EXPECT_TRUE(new_features.value().AllClose(RowOf(swapped_reference, 1), 0));
  const obs::MetricsSnapshot metrics = server.metrics_snapshot();
  EXPECT_EQ(metrics.CounterTotal("serve_batches_total"), 2u);
  EXPECT_EQ(metrics.CounterTotal("serve_swap_flushes_total"), 1u);
}

TEST_F(ServerTest, ServesInMemoryModelsViaStorePut) {
  Router server;
  auto model = api::Model::Load(path_);
  ASSERT_TRUE(model.ok());
  server.store().Put("hot", std::move(model).value());
  auto features = server.Submit("hot", RowOf(ds_.x, 2)).get();
  ASSERT_TRUE(features.ok());
  EXPECT_TRUE(features.value().AllClose(RowOf(reference_, 2), 0));
}

TEST_F(ServerTest, ConcurrentClientsGetBitIdenticalRows) {
  RouterConfig config;
  config.batcher.max_batch_rows = 8;
  Router server(config);
  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
        for (std::size_t r = c; r < ds_.x.rows();
             r += static_cast<std::size_t>(kClients)) {
          futures.push_back(server.Submit(path_, RowOf(ds_.x, r)));
        }
        std::size_t r = c;
        for (auto& future : futures) {
          auto slice = future.get();
          if (!slice.ok() ||
              !slice.value().AllClose(RowOf(reference_, r), 0)) {
            ++mismatches[c];
          }
          r += kClients;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(mismatches[c], 0);
  EXPECT_EQ(server.metrics_snapshot().CounterTotal("serve_requests_total"),
            static_cast<std::uint64_t>(kClients * kRounds) *
                (ds_.x.rows() / kClients));
}

}  // namespace
}  // namespace mcirbm::serve
