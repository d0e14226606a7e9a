// serve::RequestExecutor — the dataset cache under concurrent misses: two
// requests racing to load the same new dataset must leave one cache
// entry behind, not evict a live entry for a key that is already cached.
#include "serve/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "data/loaders.h"
#include "data/synthetic.h"
#include "serve/request.h"
#include "serve/router.h"

namespace mcirbm::serve {
namespace {

data::Dataset TestDataset() {
  data::GaussianMixtureSpec spec;
  spec.name = "executor";
  spec.num_classes = 2;
  spec.num_instances = 16;
  spec.num_features = 6;
  spec.separation = 6.0;
  return data::GenerateGaussianMixture(spec, 21);
}

// Loads through the "executor_gate:" scheme, counted per dataset name.
// A "race" load waits until two of them have arrived, so both racing
// requests are past the cache lookup before either one inserts.
std::atomic<int> g_keep_loads{0};
std::atomic<int> g_race_arrivals{0};

StatusOr<std::unique_ptr<data::DataSource>> GatedLoad(
    const std::string& name, const data::DataSourceConfig& config) {
  if (name == "keep") ++g_keep_loads;
  if (name == "race") {
    ++g_race_arrivals;
    while (g_race_arrivals.load() < 2) std::this_thread::yield();
  }
  return data::MakeInMemorySource(TestDataset(), config);
}

Request TransformRequest(const std::string& data) {
  auto request = ParseRequestLine("op=transform model=m data=" + data +
                                  " chunk=64");
  EXPECT_TRUE(request.ok()) << request.status().ToString();
  return request.value();
}

TEST(RequestExecutorTest, RacingMissesKeepOtherCachedDatasets) {
  static const bool registered =
      data::DataLoaderRegistry::Global()
          .Register("executor_gate", GatedLoad)
          .ok();
  ASSERT_TRUE(registered);
  g_keep_loads = 0;
  g_race_arrivals = 0;
  core::PipelineConfig model_config;
  model_config.model = core::ModelKind::kGrbm;
  model_config.rbm.num_hidden = 4;
  model_config.rbm.epochs = 1;
  auto model = api::Model::Train(TestDataset().x, model_config, 5);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  Router router;
  router.store().Put("m", std::move(model).value());
  ExecutorConfig config;
  config.dataset_cache_capacity = 2;
  RequestExecutor executor(&router, config);

  bool ok = false;
  executor.Execute(TransformRequest("executor_gate:keep"), "", &ok);
  ASSERT_TRUE(ok);
  ASSERT_EQ(g_keep_loads.load(), 1);

  // Two misses on one new key: the cache then holds {keep, race}, which
  // fits its capacity of 2.
  std::vector<std::thread> racers;
  std::vector<char> racer_ok(2, 0);
  for (int i = 0; i < 2; ++i) {
    racers.emplace_back([&, i] {
      bool served = false;
      executor.Execute(TransformRequest("executor_gate:race"), "", &served);
      racer_ok[i] = served;
    });
  }
  for (std::thread& racer : racers) racer.join();
  EXPECT_TRUE(racer_ok[0] && racer_ok[1]);

  executor.Execute(TransformRequest("executor_gate:keep"), "", &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(g_keep_loads.load(), 1)
      << "the second racing miss evicted the cached 'keep' dataset";
  router.Shutdown();
}

}  // namespace
}  // namespace mcirbm::serve
