// serve::ModelStore — caching, LRU eviction, hot reload, and safety for
// concurrent readers (the thread-interleaving test is the ThreadSanitizer
// target for the store).
#include "serve/model_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "data/synthetic.h"

namespace mcirbm::serve {
namespace {

linalg::Matrix TestData() {
  data::GaussianMixtureSpec spec;
  spec.name = "store";
  spec.num_classes = 2;
  spec.num_instances = 30;
  spec.num_features = 6;
  spec.separation = 6.0;
  return data::GenerateGaussianMixture(spec, 21).x;
}

// Trains one tiny plain GRBM (no supervision voters — fast) and saves it.
api::Model TrainTiny(const linalg::Matrix& x, std::uint64_t seed) {
  core::PipelineConfig config;
  config.model = core::ModelKind::kGrbm;
  config.rbm.num_hidden = 4;
  config.rbm.epochs = 2;
  config.rbm.batch_size = 10;
  auto model = api::Model::Train(x, config, seed);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

/// One of the store's registry counters.
std::uint64_t Total(const ModelStore& store, const std::string& name) {
  return store.metrics_snapshot().CounterTotal(name);
}

class ModelStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    x_ = TestData();
    for (int i = 0; i < 3; ++i) {
      paths_.push_back(::testing::TempDir() + "/store_model_" +
                       std::to_string(i) + ".mcirbm");
      ASSERT_TRUE(TrainTiny(x_, 100 + i).Save(paths_.back()).ok());
    }
  }
  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  linalg::Matrix x_;
  std::vector<std::string> paths_;
};

TEST_F(ModelStoreTest, GetCachesAndSharesOneInstance) {
  ModelStore store(4);
  auto first = store.Get(paths_[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = store.Get(paths_[0]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get())
      << "cache hit must return the same shared instance";
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(Total(store, "store_misses_total"), 1u);
  EXPECT_EQ(Total(store, "store_hits_total"), 1u);
}

TEST_F(ModelStoreTest, EvictsLeastRecentlyUsed) {
  ModelStore store(2);
  ASSERT_TRUE(store.Get(paths_[0]).ok());
  ASSERT_TRUE(store.Get(paths_[1]).ok());
  ASSERT_TRUE(store.Get(paths_[0]).ok());  // touch 0: 1 is now LRU
  ASSERT_TRUE(store.Get(paths_[2]).ok());  // evicts 1
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(Total(store, "store_evictions_total"), 1u);
  const std::uint64_t misses_before = Total(store, "store_misses_total");
  ASSERT_TRUE(store.Get(paths_[0]).ok());  // still cached
  EXPECT_EQ(Total(store, "store_misses_total"), misses_before);
  ASSERT_TRUE(store.Get(paths_[1]).ok());  // was evicted: reloads
  EXPECT_EQ(Total(store, "store_misses_total"), misses_before + 1);
}

TEST_F(ModelStoreTest, EvictionKeepsInFlightReadersAlive) {
  ModelStore store(1);
  auto held = store.Get(paths_[0]);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(store.Get(paths_[1]).ok());  // evicts paths_[0]'s entry
  // The evicted model is still fully usable through our reference.
  auto features = held.value()->Transform(x_);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_EQ(features.value().rows(), x_.rows());
}

TEST_F(ModelStoreTest, ReloadSwapsTheInstance) {
  ModelStore store(4);
  auto before = store.Get(paths_[0]);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(store.Reload(paths_[0]).ok());
  auto after = store.Get(paths_[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before.value().get(), after.value().get());
  EXPECT_EQ(Total(store, "store_reloads_total"), 1u);
  // Both instances transform identically (same artifact on disk).
  EXPECT_TRUE(before.value()->Transform(x_).value().AllClose(
      after.value()->Transform(x_).value(), 0));
}

TEST_F(ModelStoreTest, FailedReloadKeepsServingTheCachedModel) {
  ModelStore store(4);
  auto cached = store.Get(paths_[0]);
  ASSERT_TRUE(cached.ok());
  std::remove(paths_[0].c_str());
  const Status reload = store.Reload(paths_[0]);
  ASSERT_FALSE(reload.ok());
  EXPECT_EQ(reload.code(), StatusCode::kIoError);
  // The stale entry still serves.
  auto again = store.Get(paths_[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get(), cached.value().get());
}

TEST_F(ModelStoreTest, MissingFileIsNotCached) {
  ModelStore store(4);
  const std::string bogus = ::testing::TempDir() + "/no_such_model.mcirbm";
  EXPECT_FALSE(store.Get(bogus).ok());
  EXPECT_FALSE(store.Get(bogus).ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(Total(store, "store_misses_total"), 2u);
}

TEST_F(ModelStoreTest, PutServesInMemoryModels) {
  ModelStore store(4);
  auto shared = store.Put("in-memory", TrainTiny(x_, 5));
  ASSERT_NE(shared, nullptr);
  auto got = store.Get("in-memory");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().get(), shared.get());
  // No backing file, so a hot reload must fail without dropping the entry.
  EXPECT_FALSE(store.Reload("in-memory").ok());
  EXPECT_TRUE(store.Get("in-memory").ok());
  EXPECT_TRUE(store.Evict("in-memory"));
  EXPECT_FALSE(store.Evict("in-memory"));
}

TEST_F(ModelStoreTest, ConcurrentReadersAndReloads) {
  ModelStore store(2);
  constexpr int kThreads = 4;
  constexpr int kIterations = 25;
  std::vector<std::thread> readers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        auto model = store.Get(paths_[(t + i) % 2]);
        if (!model.ok() || !model.value()->valid()) ++failures[t];
      }
    });
  }
  for (int i = 0; i < kIterations; ++i) {
    ASSERT_TRUE(store.Reload(paths_[i % 2]).ok());
  }
  for (std::thread& reader : readers) reader.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);
  EXPECT_EQ(Total(store, "store_hits_total") +
                Total(store, "store_misses_total"),
            static_cast<std::uint64_t>(kThreads * kIterations));
}

}  // namespace
}  // namespace mcirbm::serve
