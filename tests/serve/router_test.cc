// serve::Router — replica-sharded serving: bit-parity with direct
// Model::Transform at any replica count, deterministic key-hash routing,
// the shared cross-replica ModelStore, and fail-fast per-queue
// backpressure (a ThreadSanitizer target: the concurrent stress pins
// rejection behavior under TSan). The one-replica serving unit is pinned
// by server_test.cc.
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
  spec.name = "router";
  spec.num_classes = 2;
  spec.num_instances = 32;
  spec.num_features = 6;
  spec.separation = 6.0;
  return data::GenerateGaussianMixture(spec, 21);
}

api::Model TrainTiny(const linalg::Matrix& x, std::uint64_t seed) {
  core::PipelineConfig config;
  config.model = core::ModelKind::kGrbm;
  config.rbm.num_hidden = 5;
  config.rbm.epochs = 2;
  config.rbm.batch_size = 10;
  auto model = api::Model::Train(x, config, seed);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

linalg::Matrix RowOf(const linalg::Matrix& x, std::size_t r) {
  linalg::Matrix row(1, x.cols());
  std::memcpy(row.data(), x.data() + r * x.cols(),
              x.cols() * sizeof(double));
  return row;
}

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = TestDataset();
    path_a_ = ::testing::TempDir() + "/router_model_a.mcirbm";
    path_b_ = ::testing::TempDir() + "/router_model_b.mcirbm";
    api::Model model_a = TrainTiny(ds_.x, 33);
    api::Model model_b = TrainTiny(ds_.x, 77);
    reference_a_ = model_a.Transform(ds_.x).value();
    reference_b_ = model_b.Transform(ds_.x).value();
    ASSERT_TRUE(model_a.Save(path_a_).ok());
    ASSERT_TRUE(model_b.Save(path_b_).ok());
  }
  void TearDown() override {
    std::remove(path_a_.c_str());
    std::remove(path_b_.c_str());
  }

  data::Dataset ds_;
  std::string path_a_, path_b_;
  linalg::Matrix reference_a_, reference_b_;
};

// The tentpole guarantee: for the same request stream, a Router with any
// replica count produces feature slices byte-equal to direct
// Model::Transform, i.e. to a single replica.
TEST_F(RouterTest, AnyReplicaCountIsBitIdenticalToASingleServer) {
  for (const std::size_t replicas : {1u, 2u, 4u}) {
    RouterConfig config;
    config.replicas = replicas;
    config.batcher.max_batch_rows = 8;
    Router router(config);
    ASSERT_EQ(router.replicas(), replicas);
    // Interleave two models so the key-hash has something to shard.
    std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
    for (std::size_t r = 0; r < ds_.x.rows(); ++r) {
      const std::string& key = (r % 2 == 0) ? path_a_ : path_b_;
      futures.push_back(router.Submit(key, RowOf(ds_.x, r)));
    }
    for (std::size_t r = 0; r < futures.size(); ++r) {
      auto slice = futures[r].get();
      ASSERT_TRUE(slice.ok()) << slice.status().ToString();
      const linalg::Matrix& reference =
          (r % 2 == 0) ? reference_a_ : reference_b_;
      EXPECT_TRUE(slice.value().AllClose(RowOf(reference, r), 0))
          << "row " << r << " diverged at " << replicas << " replicas";
    }
    const obs::MetricsSnapshot metrics = router.metrics_snapshot();
    EXPECT_EQ(metrics.CounterTotal("serve_requests_total"), ds_.x.rows());
    // One disk load per model path, every later submission a cache hit,
    // whichever replica the key routes to.
    EXPECT_EQ(metrics.CounterTotal("store_misses_total"), 2u);
    EXPECT_EQ(metrics.CounterTotal("store_hits_total"), ds_.x.rows() - 2);
  }
}

TEST_F(RouterTest, RoutingIsDeterministicAcrossRouterInstances) {
  RouterConfig config;
  config.replicas = 4;
  Router first(config);
  Router second(config);
  for (const std::string& key :
       {path_a_, path_b_, std::string("some/other key.mcirbm")}) {
    EXPECT_LT(first.ReplicaFor(key), 4u);
    EXPECT_EQ(first.ReplicaFor(key), second.ReplicaFor(key));
  }
  // A key always lands on the same replica within one router, too.
  EXPECT_EQ(first.ReplicaFor(path_a_), first.ReplicaFor(path_a_));
}

TEST_F(RouterTest, ReplicasShareOneModelStore) {
  RouterConfig config;
  config.replicas = 4;
  Router router(config);
  // An in-memory Put through the router's store serves whichever replica
  // the key routes to.
  router.store().Put("hot", TrainTiny(ds_.x, 33));
  auto features = router.Submit("hot", RowOf(ds_.x, 2)).get();
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_TRUE(features.value().AllClose(RowOf(reference_a_, 2), 0));
  // A disk artifact is loaded exactly once into the shared store.
  ASSERT_TRUE(router.Submit(path_a_, RowOf(ds_.x, 0)).get().ok());
  ASSERT_TRUE(router.Submit(path_a_, RowOf(ds_.x, 1)).get().ok());
  const obs::MetricsSnapshot metrics = router.metrics_snapshot();
  EXPECT_EQ(metrics.CounterTotal("store_misses_total"), 1u);
  EXPECT_GE(metrics.CounterTotal("store_hits_total"), 1u);
}

TEST_F(RouterTest, ReloadSwapsTheArtifactForEveryReplica) {
  RouterConfig config;
  config.replicas = 2;
  Router router(config);
  auto before = router.Submit(path_a_, RowOf(ds_.x, 0)).get();
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().AllClose(RowOf(reference_a_, 0), 0));
  // Overwrite the artifact on disk and hot-swap: one Reload through the
  // shared store is seen by all replicas.
  ASSERT_TRUE(TrainTiny(ds_.x, 77).Save(path_a_).ok());
  ASSERT_TRUE(router.Reload(path_a_).ok());
  auto after = router.Submit(path_a_, RowOf(ds_.x, 0)).get();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().AllClose(RowOf(reference_b_, 0), 0));
  EXPECT_EQ(router.metrics_snapshot().CounterTotal("store_reloads_total"),
            1u);
}

TEST_F(RouterTest, SubmitAfterShutdownIsUnavailable) {
  RouterConfig config;
  config.replicas = 2;
  Router router(config);
  ASSERT_TRUE(router.Submit(path_a_, RowOf(ds_.x, 0)).get().ok());
  router.Shutdown();
  auto rejected = router.Submit(path_a_, RowOf(ds_.x, 1)).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
}

// TSan target: concurrent clients against tight per-queue bounds. Every
// future must resolve exactly once — accepted requests
// bit-identical to the reference, rejections fail fast with kUnavailable
// — and the counters must account for every submission.
TEST_F(RouterTest, ConcurrentOverflowNeverBlocksOrDropsRequests) {
  RouterConfig config;
  config.replicas = 2;
  config.batcher.max_batch_rows = 4;
  config.batcher.max_pending_rows = 4;
  config.batcher.max_queue_micros = 200;
  Router router(config);
  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::vector<std::thread> clients;
  std::vector<std::uint64_t> accepted(kClients, 0);
  std::vector<std::uint64_t> rejected(kClients, 0);
  std::vector<int> errors(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Burst-submit the whole batch before draining any future, so the
      // bounds genuinely overflow, then verify every single outcome.
      std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
      futures.reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t r =
            static_cast<std::size_t>(c * kPerClient + i) % ds_.x.rows();
        const std::string& key = (i % 2 == 0) ? path_a_ : path_b_;
        futures.push_back(router.Submit(key, RowOf(ds_.x, r)));
      }
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t r =
            static_cast<std::size_t>(c * kPerClient + i) % ds_.x.rows();
        auto result = futures[i].get();
        if (result.ok()) {
          const linalg::Matrix& reference =
              (i % 2 == 0) ? reference_a_ : reference_b_;
          if (!result.value().AllClose(RowOf(reference, r), 0)) ++errors[c];
          ++accepted[c];
        } else if (result.status().code() == StatusCode::kUnavailable) {
          ++rejected[c];
        } else {
          ++errors[c];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  std::uint64_t total_accepted = 0, total_rejected = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[c], 0) << "client " << c;
    total_accepted += accepted[c];
    total_rejected += rejected[c];
  }
  EXPECT_EQ(total_accepted + total_rejected,
            static_cast<std::uint64_t>(kClients) * kPerClient);
  const obs::MetricsSnapshot metrics = router.metrics_snapshot();
  EXPECT_EQ(metrics.CounterTotal("serve_requests_total"), total_accepted);
  EXPECT_EQ(metrics.CounterTotal("serve_rejected_total"), total_rejected);
}

TEST_F(RouterTest, MetricsSnapshotMergesReplicasAndStoreOnce) {
  RouterConfig config;
  config.replicas = 2;
  Router router(config);
  ASSERT_TRUE(router.Submit(path_a_, RowOf(ds_.x, 0)).get().ok());
  ASSERT_TRUE(router.Submit(path_b_, RowOf(ds_.x, 1)).get().ok());
  const obs::MetricsSnapshot snap = router.metrics_snapshot();
  // Per-key request counters from (possibly different) replicas both
  // appear in the merged view.
  EXPECT_EQ((snap.counters.at({"serve_requests_total", path_a_})), 1u);
  EXPECT_EQ((snap.counters.at({"serve_requests_total", path_b_})), 1u);
  // The shared store is folded in exactly once: two distinct artifacts,
  // two misses — not 2 * replicas.
  EXPECT_EQ((snap.counters.at({"store_misses_total", ""})), 2u);
  // Router-level gauges ride along.
  EXPECT_DOUBLE_EQ((snap.gauges.at({"serve_replicas", ""})), 2.0);
  // Queue-wait histograms recorded one observation per request.
  EXPECT_EQ(snap.HistogramTotal("serve_queue_wait_micros").count, 2u);
  // All drained: the merged pending-rows gauges read 0.
  for (const auto& [key, value] : snap.gauges) {
    if (key.first == "serve_pending_rows") {
      EXPECT_DOUBLE_EQ(value, 0.0) << key.second;
    }
  }
  // The rendered text is grep-able Prometheus form.
  const std::string text = snap.RenderText();
  EXPECT_NE(text.find("serve_replicas 2"), std::string::npos) << text;
}

}  // namespace
}  // namespace mcirbm::serve
