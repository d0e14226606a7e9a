// serve::MicroBatcher — coalescing edge cases and the bit-parity
// guarantee: batched serving output equals one-at-a-time Transform calls.
#include "serve/micro_batcher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.h"
#include "data/synthetic.h"

namespace mcirbm::serve {
namespace {

data::Dataset TestDataset(int instances = 32) {
  data::GaussianMixtureSpec spec;
  spec.name = "batcher";
  spec.num_classes = 2;
  spec.num_instances = instances;
  spec.num_features = 6;
  spec.separation = 6.0;
  return data::GenerateGaussianMixture(spec, 21);
}

std::shared_ptr<const api::Model> TrainShared(
    const linalg::Matrix& x, core::ModelKind kind, std::uint64_t seed) {
  core::PipelineConfig config;
  config.model = kind;
  config.rbm.num_hidden = 5;
  config.rbm.epochs = 2;
  config.rbm.batch_size = 10;
  config.supervision.num_clusters = 2;
  auto model = api::Model::Train(x, config, seed);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::make_shared<const api::Model>(std::move(model).value());
}

/// One of the batcher's registry counters, summed over model keys.
std::uint64_t Total(const MicroBatcher& batcher, const std::string& name) {
  return batcher.metrics_snapshot().CounterTotal(name);
}

/// Extracts row `r` of `x` as a 1 x cols matrix.
linalg::Matrix RowOf(const linalg::Matrix& x, std::size_t r) {
  linalg::Matrix row(1, x.cols());
  std::memcpy(row.data(), x.data() + r * x.cols(),
              x.cols() * sizeof(double));
  return row;
}

class MicroBatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = TestDataset();
    model_ = TrainShared(ds_.x, core::ModelKind::kGrbm, 33);
  }

  data::Dataset ds_;
  std::shared_ptr<const api::Model> model_;
};

TEST_F(MicroBatcherTest, SingleRequestFlushesOnDeadline) {
  BatcherConfig config;
  config.max_batch_rows = 100;  // never reached
  config.max_queue_micros = 500;
  MicroBatcher batcher(config);
  auto future = batcher.SubmitTransform(model_, "m", RowOf(ds_.x, 0));
  auto features = future.get();
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_TRUE(features.value().AllClose(
      model_->Transform(RowOf(ds_.x, 0)).value(), 0));
  EXPECT_EQ(Total(batcher, "serve_requests_total"), 1u);
  EXPECT_EQ(Total(batcher, "serve_batches_total"), 1u);
  EXPECT_EQ(Total(batcher, "serve_deadline_flushes_total"), 1u);
  EXPECT_EQ(Total(batcher, "serve_full_flushes_total"), 0u);
}

TEST_F(MicroBatcherTest, MaxBatchRowsBoundaryFlushesExactlyFull) {
  BatcherConfig config;
  config.max_batch_rows = 4;
  config.max_queue_micros = 60'000'000;  // only the row cap can flush
  MicroBatcher batcher(config);
  // 3 rows stay pending; the 4th hits the boundary exactly.
  std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
  linalg::Matrix three(3, ds_.x.cols());
  std::memcpy(three.data(), ds_.x.data(), three.size() * sizeof(double));
  futures.push_back(batcher.SubmitTransform(model_, "m", std::move(three)));
  futures.push_back(batcher.SubmitTransform(model_, "m", RowOf(ds_.x, 3)));
  for (auto& future : futures) {
    auto features = future.get();
    ASSERT_TRUE(features.ok()) << features.status().ToString();
  }
  EXPECT_EQ(Total(batcher, "serve_batches_total"), 1u);
  EXPECT_EQ(Total(batcher, "serve_rows_total"), 4u);
  EXPECT_EQ(Total(batcher, "serve_full_flushes_total"), 1u);
  EXPECT_EQ(Total(batcher, "serve_deadline_flushes_total"), 0u);
  batcher.Shutdown();
}

TEST_F(MicroBatcherTest, OversizedRequestFormsOneBatch) {
  BatcherConfig config;
  config.max_batch_rows = 4;
  config.max_queue_micros = 60'000'000;
  MicroBatcher batcher(config);
  linalg::Matrix all = ds_.x;  // 32 rows >> max_batch_rows
  auto features = batcher.SubmitTransform(model_, "m", std::move(all)).get();
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_TRUE(features.value().AllClose(model_->Transform(ds_.x).value(), 0));
  EXPECT_EQ(Total(batcher, "serve_batches_total"), 1u);
  EXPECT_EQ(Total(batcher, "serve_rows_total"), ds_.x.rows());
  EXPECT_EQ(Total(batcher, "serve_full_flushes_total"), 1u);
}

TEST_F(MicroBatcherTest, MixedModelQueuesNeverShareABatch) {
  // A second model with a different seed: same shapes, different weights.
  auto other = TrainShared(ds_.x, core::ModelKind::kGrbm, 77);
  BatcherConfig config;
  config.max_batch_rows = 2;
  config.max_queue_micros = 60'000'000;
  MicroBatcher batcher(config);
  auto a0 = batcher.SubmitTransform(model_, "a", RowOf(ds_.x, 0));
  auto b0 = batcher.SubmitTransform(other, "b", RowOf(ds_.x, 0));
  auto a1 = batcher.SubmitTransform(model_, "a", RowOf(ds_.x, 1));
  auto b1 = batcher.SubmitTransform(other, "b", RowOf(ds_.x, 1));
  // Each queue filled to its 2-row cap independently.
  EXPECT_TRUE(a0.get().value().AllClose(
      model_->Transform(RowOf(ds_.x, 0)).value(), 0));
  EXPECT_TRUE(a1.get().value().AllClose(
      model_->Transform(RowOf(ds_.x, 1)).value(), 0));
  EXPECT_TRUE(b0.get().value().AllClose(
      other->Transform(RowOf(ds_.x, 0)).value(), 0));
  EXPECT_TRUE(b1.get().value().AllClose(
      other->Transform(RowOf(ds_.x, 1)).value(), 0));
  EXPECT_EQ(Total(batcher, "serve_batches_total"), 2u);
  EXPECT_EQ(Total(batcher, "serve_full_flushes_total"), 2u);
  EXPECT_EQ(Total(batcher, "serve_rows_total"), 4u);
}

TEST_F(MicroBatcherTest, ModelSwapMidQueueSealsTheOldBatch) {
  // Hot reload swaps the instance behind a key while requests are still
  // queued: earlier requests must finish on the instance they were
  // submitted against, later ones on the new instance — never mixed.
  auto other = TrainShared(ds_.x, core::ModelKind::kGrbm, 77);
  BatcherConfig config;
  config.max_batch_rows = 100;          // nothing flushes by row count
  config.max_queue_micros = 60'000'000;  // nor by deadline
  MicroBatcher batcher(config);
  auto old_instance =
      batcher.SubmitTransform(model_, "m", RowOf(ds_.x, 0));
  auto new_instance =
      batcher.SubmitTransform(other, "m", RowOf(ds_.x, 0));
  // The sealed old-instance batch flushes immediately; the new queue
  // drains on Shutdown.
  auto old_features = old_instance.get();
  ASSERT_TRUE(old_features.ok());
  EXPECT_TRUE(old_features.value().AllClose(
      model_->Transform(RowOf(ds_.x, 0)).value(), 0));
  batcher.Shutdown();
  auto new_features = new_instance.get();
  ASSERT_TRUE(new_features.ok());
  EXPECT_TRUE(new_features.value().AllClose(
      other->Transform(RowOf(ds_.x, 0)).value(), 0));
  EXPECT_EQ(Total(batcher, "serve_batches_total"), 2u);
}

TEST_F(MicroBatcherTest, SwapFlushIsAttributedAsSwapNotDeadline) {
  // Regression: batches sealed by a mid-queue hot swap hit neither the
  // size cap nor the deadline and used to be miscounted as
  // deadline_flushes.
  auto other = TrainShared(ds_.x, core::ModelKind::kGrbm, 77);
  BatcherConfig config;
  config.max_batch_rows = 100;           // nothing flushes by row count
  config.max_queue_micros = 60'000'000;  // nor by deadline
  MicroBatcher batcher(config);
  auto old_instance = batcher.SubmitTransform(model_, "m", RowOf(ds_.x, 0));
  auto new_instance = batcher.SubmitTransform(other, "m", RowOf(ds_.x, 1));
  ASSERT_TRUE(old_instance.get().ok());  // sealed batch flushes at once
  batcher.Shutdown();                    // fresh queue drains on shutdown
  ASSERT_TRUE(new_instance.get().ok());
  EXPECT_EQ(Total(batcher, "serve_batches_total"), 2u);
  EXPECT_EQ(Total(batcher, "serve_swap_flushes_total"), 1u);
  // Only the shutdown drain counts as a deadline flush.
  EXPECT_EQ(Total(batcher, "serve_deadline_flushes_total"), 1u);
  EXPECT_EQ(Total(batcher, "serve_full_flushes_total"), 0u);
}

TEST_F(MicroBatcherTest, OversizedSealedQueueIsSplitToRespectTheCap) {
  // Regression: a sealed queue used to flush as ONE batch even when its
  // pending rows exceeded max_batch_rows. Park the flusher inside a long
  // pass on another key, pile up 6 rows (cap 4) behind it, then hot-swap:
  // the seal must produce two capped batches, not one 6-row pass.
  auto other = TrainShared(ds_.x, core::ModelKind::kGrbm, 77);
  BatcherConfig config;
  config.max_batch_rows = 4;
  config.max_queue_micros = 60'000'000;
  MicroBatcher batcher(config);
  // A 20000-row oversized request: admitted whole, flushed immediately
  // as one full batch the flusher spends a long time executing.
  linalg::Matrix big(20000, ds_.x.cols());
  for (std::size_t r = 0; r < big.rows(); ++r) {
    std::memcpy(big.data() + r * big.cols(),
                ds_.x.data() + (r % ds_.x.rows()) * ds_.x.cols(),
                big.cols() * sizeof(double));
  }
  auto slow = batcher.SubmitTransform(model_, "slow", std::move(big));
  // Wait until the flusher has detached the slow batch for execution.
  while (batcher.pending_queues() != 0) {
    std::this_thread::yield();
  }
  // 3 + 3 pending rows on "m" (> cap; the flusher is busy), then swap.
  linalg::Matrix first(3, ds_.x.cols());
  std::memcpy(first.data(), ds_.x.data(), first.size() * sizeof(double));
  linalg::Matrix second(3, ds_.x.cols());
  std::memcpy(second.data(), ds_.x.data() + 3 * ds_.x.cols(),
              second.size() * sizeof(double));
  auto a = batcher.SubmitTransform(model_, "m", std::move(first));
  auto b = batcher.SubmitTransform(model_, "m", std::move(second));
  auto c = batcher.SubmitTransform(other, "m", RowOf(ds_.x, 6));
  ASSERT_TRUE(slow.get().ok());
  ASSERT_TRUE(a.get().ok());
  ASSERT_TRUE(b.get().ok());
  batcher.Shutdown();
  ASSERT_TRUE(c.get().ok());
  // slow (full) + the two 3-row requests as two capped batches (sealed
  // by the swap in the expected interleaving; as regular full flushes in
  // the unlikely one where the flusher finishes the slow pass first —
  // either way the 6 rows must NOT form one over-cap batch, which would
  // make this 3 batches) + the fresh queue's shutdown drain.
  EXPECT_EQ(Total(batcher, "serve_batches_total"), 4u);
  EXPECT_EQ(Total(batcher, "serve_full_flushes_total") +
                Total(batcher, "serve_swap_flushes_total"),
            3u);
  EXPECT_EQ(Total(batcher, "serve_deadline_flushes_total"), 1u);
  EXPECT_EQ(Total(batcher, "serve_rows_total"), 20000u + 7u);
}

TEST_F(MicroBatcherTest, PerQueueOverflowRejectsFastWithUnavailable) {
  BatcherConfig config;
  config.max_batch_rows = 100;
  config.max_queue_micros = 60'000'000;
  config.max_pending_rows = 1;
  MicroBatcher batcher(config);
  auto admitted = batcher.SubmitTransform(model_, "m", RowOf(ds_.x, 0));
  // Queue full: the next submission must resolve immediately (never
  // block) with kUnavailable.
  auto rejected = batcher.SubmitTransform(model_, "m", RowOf(ds_.x, 1));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto rejection = rejected.get();
  ASSERT_FALSE(rejection.ok());
  EXPECT_EQ(rejection.status().code(), StatusCode::kUnavailable);
  // Another key is unaffected by "m"'s backpressure (both pending
  // requests drain on Shutdown — nothing else can flush them here).
  auto elsewhere = batcher.SubmitTransform(model_, "other", RowOf(ds_.x, 2));
  batcher.Shutdown();
  ASSERT_TRUE(elsewhere.get().ok());
  ASSERT_TRUE(admitted.get().ok());
  EXPECT_EQ(Total(batcher, "serve_rejected_total"), 1u);
  // Rejected submissions are not counted as requests.
  EXPECT_EQ(Total(batcher, "serve_requests_total"), 2u);
}

TEST_F(MicroBatcherTest, SealedRowsStillCountAgainstTheBackpressureBound) {
  // Regression: rows sealed into a swap batch used to vanish from the
  // max_pending_rows accounting, so a Reload-heavy client could grow
  // sealed work without bound. Park the flusher on a long pass so the
  // sealed batch cannot be claimed, then verify the bound still holds.
  auto other = TrainShared(ds_.x, core::ModelKind::kGrbm, 77);
  BatcherConfig config;
  config.max_batch_rows = 100;
  config.max_queue_micros = 60'000'000;
  config.max_pending_rows = 4;
  MicroBatcher batcher(config);
  linalg::Matrix big(20000, ds_.x.cols());
  for (std::size_t r = 0; r < big.rows(); ++r) {
    std::memcpy(big.data() + r * big.cols(),
                ds_.x.data() + (r % ds_.x.rows()) * ds_.x.cols(),
                big.cols() * sizeof(double));
  }
  auto slow = batcher.SubmitTransform(model_, "slow", std::move(big));
  while (batcher.pending_queues() != 0) {
    std::this_thread::yield();
  }
  // 3 rows pending on the old instance, swap-sealed by a 1-row submit on
  // the new one: 3 sealed + 1 pending rows now held against the bound.
  linalg::Matrix three(3, ds_.x.cols());
  std::memcpy(three.data(), ds_.x.data(), three.size() * sizeof(double));
  auto old_rows = batcher.SubmitTransform(model_, "m", std::move(three));
  auto fresh = batcher.SubmitTransform(other, "m", RowOf(ds_.x, 3));
  auto overflow = batcher.SubmitTransform(other, "m", RowOf(ds_.x, 4));
  if (overflow.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    // Admission is only legitimate if the flusher won the (tiny) race
    // and claimed the sealed batch first, releasing its rows. The claim
    // and its swap-flush count happen under the batcher lock
    // before any later Enqueue, so a zero counter here means the rows
    // were still held — i.e. the bound was bypassed.
    EXPECT_GE(Total(batcher, "serve_swap_flushes_total"), 1u)
        << "submission admitted while sealed rows were still held";
    GTEST_SKIP() << "flusher claimed the sealed batch first";
  }
  auto rejection = overflow.get();
  ASSERT_FALSE(rejection.ok());
  EXPECT_EQ(rejection.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(Total(batcher, "serve_rejected_total"), 1u);
  batcher.Shutdown();
  ASSERT_TRUE(slow.get().ok());
  ASSERT_TRUE(old_rows.get().ok());
  ASSERT_TRUE(fresh.get().ok());
}

TEST_F(MicroBatcherTest, OversizedFirstRequestIsAlwaysAdmitted) {
  BatcherConfig config;
  config.max_pending_rows = 2;
  MicroBatcher batcher(config);
  linalg::Matrix all = ds_.x;  // 32 rows >> max_pending_rows
  auto features = batcher.SubmitTransform(model_, "m", std::move(all)).get();
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_EQ(Total(batcher, "serve_rejected_total"), 0u);
}

TEST_F(MicroBatcherTest, PendingGaugesCountRequestsAndRowsWaitingForABatch) {
  BatcherConfig config;
  config.max_batch_rows = 100;
  config.max_queue_micros = 60'000'000;  // no flush before Shutdown
  MicroBatcher batcher(config);
  linalg::Matrix three(3, ds_.x.cols());
  std::memcpy(three.data(), ds_.x.data(), three.size() * sizeof(double));
  linalg::Matrix two(2, ds_.x.cols());
  std::memcpy(two.data(), ds_.x.data() + three.size(),
              two.size() * sizeof(double));
  auto first = batcher.SubmitTransform(model_, "m", std::move(three));
  auto second = batcher.SubmitTransform(model_, "m", std::move(two));
  const auto gauge = [&batcher](const char* name) {
    return batcher.metrics_snapshot().gauges.at({name, "m"});
  };
  EXPECT_DOUBLE_EQ(gauge("serve_pending_rows"), 5.0);
  EXPECT_DOUBLE_EQ(gauge("serve_queue_depth"), 2.0);
  batcher.Shutdown();
  ASSERT_TRUE(first.get().ok());
  ASSERT_TRUE(second.get().ok());
  // Flushed and resolved: nothing waits for a batch any more.
  EXPECT_DOUBLE_EQ(gauge("serve_pending_rows"), 0.0);
  EXPECT_DOUBLE_EQ(gauge("serve_queue_depth"), 0.0);
}

TEST_F(MicroBatcherTest, ReloadThenShutdownResolvesEveryFutureExactlyOnce) {
  // Interleaving from the issue: a hot swap immediately followed by
  // Shutdown. The sealed old-instance batch and the fresh queue must
  // both flush — every pending future resolves exactly once, on the
  // instance it was submitted against. (A double resolution would abort
  // on the promise; an abandoned one would hang the .get() forever.)
  auto other = TrainShared(ds_.x, core::ModelKind::kGrbm, 77);
  BatcherConfig config;
  config.max_batch_rows = 100;
  config.max_queue_micros = 60'000'000;
  MicroBatcher batcher(config);
  auto old_instance = batcher.SubmitTransform(model_, "m", RowOf(ds_.x, 0));
  auto new_instance = batcher.SubmitTransform(other, "m", RowOf(ds_.x, 1));
  batcher.Shutdown();  // immediately — no wait for the sealed flush
  auto old_features = old_instance.get();
  ASSERT_TRUE(old_features.ok()) << old_features.status().ToString();
  EXPECT_TRUE(old_features.value().AllClose(
      model_->Transform(RowOf(ds_.x, 0)).value(), 0));
  auto new_features = new_instance.get();
  ASSERT_TRUE(new_features.ok()) << new_features.status().ToString();
  EXPECT_TRUE(new_features.value().AllClose(
      other->Transform(RowOf(ds_.x, 1)).value(), 0));
  EXPECT_EQ(Total(batcher, "serve_batches_total"), 2u);
  EXPECT_EQ(Total(batcher, "serve_rows_total"), 2u);
  EXPECT_EQ(Total(batcher, "serve_swap_flushes_total"), 1u);
}

TEST_F(MicroBatcherTest, DrainedQueuesAreDropped) {
  // A long-lived server sees many distinct keys; drained queues must not
  // accumulate (each would pin its model shared_ptr and grow the
  // per-wakeup scan).
  BatcherConfig config;
  config.max_batch_rows = 1;
  MicroBatcher batcher(config);
  for (int i = 0; i < 3; ++i) {
    auto features = batcher
                        .SubmitTransform(model_, "key" + std::to_string(i),
                                         RowOf(ds_.x, 0))
                        .get();
    ASSERT_TRUE(features.ok());
  }
  EXPECT_EQ(batcher.pending_queues(), 0u);
}

TEST_F(MicroBatcherTest, ShutdownWithEmptyQueueIsClean) {
  MicroBatcher batcher;
  batcher.Shutdown();
  batcher.Shutdown();  // idempotent
  EXPECT_EQ(Total(batcher, "serve_requests_total"), 0u);
  EXPECT_EQ(Total(batcher, "serve_batches_total"), 0u);
}

TEST_F(MicroBatcherTest, ShutdownFlushesPendingRequests) {
  BatcherConfig config;
  config.max_batch_rows = 100;
  config.max_queue_micros = 60'000'000;  // no flush before Shutdown
  MicroBatcher batcher(config);
  auto first = batcher.SubmitTransform(model_, "m", RowOf(ds_.x, 0));
  auto second = batcher.SubmitTransform(model_, "m", RowOf(ds_.x, 1));
  batcher.Shutdown();
  // Pending work was completed, not abandoned.
  ASSERT_TRUE(first.get().ok());
  auto features = second.get();
  ASSERT_TRUE(features.ok());
  EXPECT_TRUE(features.value().AllClose(
      model_->Transform(RowOf(ds_.x, 1)).value(), 0));
  EXPECT_EQ(Total(batcher, "serve_batches_total"), 1u);
}

TEST_F(MicroBatcherTest, SubmitAfterShutdownIsUnavailable) {
  MicroBatcher batcher;
  batcher.Shutdown();
  auto transform = batcher.SubmitTransform(model_, "m", RowOf(ds_.x, 0));
  auto transform_result = transform.get();
  ASSERT_FALSE(transform_result.ok());
  EXPECT_EQ(transform_result.status().code(), StatusCode::kUnavailable);
  auto evaluate =
      batcher.SubmitEvaluate(model_, "m", ds_.x, ds_.labels).get();
  ASSERT_FALSE(evaluate.ok());
  EXPECT_EQ(evaluate.status().code(), StatusCode::kUnavailable);
}

TEST_F(MicroBatcherTest, BadRequestsFailFastWithoutQueueing) {
  MicroBatcher batcher;
  // Wrong width.
  auto narrow =
      batcher.SubmitTransform(model_, "m",
                              linalg::Matrix(1, ds_.x.cols() - 1)).get();
  ASSERT_FALSE(narrow.ok());
  EXPECT_EQ(narrow.status().code(), StatusCode::kInvalidArgument);
  // Empty request.
  auto empty = batcher.SubmitTransform(model_, "m", linalg::Matrix()).get();
  EXPECT_FALSE(empty.ok());
  // Missing model.
  auto orphan =
      batcher.SubmitTransform(nullptr, "m", RowOf(ds_.x, 0)).get();
  EXPECT_FALSE(orphan.ok());
  // Label/row mismatch on evaluate.
  auto mismatched =
      batcher.SubmitEvaluate(model_, "m", RowOf(ds_.x, 0), ds_.labels)
          .get();
  EXPECT_FALSE(mismatched.ok());
  EXPECT_EQ(Total(batcher, "serve_requests_total"), 0u);
}

// Bit-parity for every model kind: rows submitted one at a time through
// the batcher, coalesced into batched passes, must reproduce the direct
// Model::Transform / Evaluate results exactly.
class BatchParityTest : public ::testing::TestWithParam<core::ModelKind> {};

TEST_P(BatchParityTest, BatchedTransformMatchesSequentialBitForBit) {
  const data::Dataset ds = TestDataset(24);
  auto model = TrainShared(ds.x, GetParam(), 33);
  const linalg::Matrix reference = model->Transform(ds.x).value();

  BatcherConfig config;
  config.max_batch_rows = 8;
  // Generous deadline: rows coalesce into full batches even when a
  // sanitizer or a loaded CI machine slows submission down.
  config.max_queue_micros = 50'000;
  MicroBatcher batcher(config);
  std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
  for (std::size_t r = 0; r < ds.x.rows(); ++r) {
    futures.push_back(batcher.SubmitTransform(model, "m", RowOf(ds.x, r)));
  }
  for (std::size_t r = 0; r < futures.size(); ++r) {
    auto slice = futures[r].get();
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    ASSERT_EQ(slice.value().rows(), 1u);
    ASSERT_EQ(slice.value().cols(), reference.cols());
    // AllClose with tol 0 is exact bit equality up to ±0.0/NaN, which the
    // sigmoid never produces.
    EXPECT_TRUE(slice.value().AllClose(RowOf(reference, r), 0))
        << "row " << r << " diverged from the sequential transform";
  }
  const std::uint64_t batches = Total(batcher, "serve_batches_total");
  EXPECT_EQ(Total(batcher, "serve_requests_total"), ds.x.rows());
  EXPECT_GE(batches, 3u);  // 24 rows / cap 8
  EXPECT_GT(Total(batcher, "serve_rows_total"), batches)
      << "rows were not actually coalesced";
  // Every batch is attributed to exactly one flush trigger.
  EXPECT_EQ(Total(batcher, "serve_full_flushes_total") +
                Total(batcher, "serve_deadline_flushes_total") +
                Total(batcher, "serve_swap_flushes_total"),
            batches);
}

TEST_P(BatchParityTest, BatchedEvaluateMatchesModelEvaluate) {
  const data::Dataset ds = TestDataset(24);
  auto model = TrainShared(ds.x, GetParam(), 33);
  const api::EvalOptions options;
  auto reference = model->Evaluate(ds.x, ds.labels, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  BatcherConfig config;
  config.max_batch_rows = 64;
  MicroBatcher batcher(config);
  // Interleave transform rows so the evaluate request's slice sits inside
  // a larger mixed batch.
  auto before = batcher.SubmitTransform(model, "m", RowOf(ds.x, 0));
  auto evaluated =
      batcher.SubmitEvaluate(model, "m", ds.x, ds.labels, options);
  auto after = batcher.SubmitTransform(model, "m", RowOf(ds.x, 1));
  ASSERT_TRUE(before.get().ok());
  ASSERT_TRUE(after.get().ok());
  auto result = evaluated.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().clusters_found, reference.value().clusters_found);
  EXPECT_DOUBLE_EQ(result.value().metrics.accuracy,
                   reference.value().metrics.accuracy);
  EXPECT_DOUBLE_EQ(result.value().metrics.purity,
                   reference.value().metrics.purity);
  EXPECT_DOUBLE_EQ(result.value().metrics.rand_index,
                   reference.value().metrics.rand_index);
  EXPECT_DOUBLE_EQ(result.value().metrics.fmi,
                   reference.value().metrics.fmi);
  EXPECT_DOUBLE_EQ(result.value().metrics.nmi,
                   reference.value().metrics.nmi);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, BatchParityTest,
    ::testing::Values(core::ModelKind::kRbm, core::ModelKind::kGrbm,
                      core::ModelKind::kSlsRbm, core::ModelKind::kSlsGrbm),
    [](const ::testing::TestParamInfo<core::ModelKind>& info) {
      std::string name = api::ModelKindRegistryName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mcirbm::serve
