// serve::Router — the serving unit: one shared ModelStore in front of N
// MicroBatcher replicas.
//
//   serve::RouterConfig config;
//   config.replicas = 4;
//   config.batcher.max_pending_rows = 256;   // per-queue bound
//   serve::Router router(config);
//   auto features = router.Submit("encoder.mcirbm", row);   // future
//   auto scored = router.SubmitEvaluate("encoder.mcirbm", rows, labels);
//   router.Shutdown();  // flushes pending work; later submits fail
//
// Submit sends a model key to its replica (ReplicaFor: FNV-1a over the
// key, mod the replica count), resolves the key through the store
// (loading the artifact from that path on first use), and queues the
// rows on the replica's batcher. A key always lands on the same replica,
// so its requests keep coalescing in one batcher. Each replica is a
// MicroBatcher with its own flusher thread; one replica is the
// single-server case. The store is shared, so an artifact loaded (or
// Put) once serves every replica, and Reload swaps it for all of them
// atomically. Submissions are safe from any number of client threads,
// and results are bit-identical to calling api::Model::Transform /
// Evaluate directly at any replica count (pinned by
// tests/serve/router_test.cc at 1/2/4 replicas).
//
// Backpressure is the batchers' per-queue bound
// (BatcherConfig::max_pending_rows): a submission that would push its
// model's queue past it resolves its future immediately with
// StatusCode::kUnavailable (counted in serve_rejected_total). Overflow
// never blocks the caller and never drops a request silently.
//
// Observability: the component registries are the only counters.
// metrics_snapshot() merges every replica's obs::Registry with the
// store's into one view; RequestExecutor renders it for `op=stats` and
// `--stats-every`, and the CLI's `# served=` summary line is derived
// from the same snapshot.
#ifndef MCIRBM_SERVE_ROUTER_H_
#define MCIRBM_SERVE_ROUTER_H_

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "api/model.h"
#include "linalg/matrix.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/micro_batcher.h"
#include "serve/model_store.h"
#include "util/status.h"

namespace mcirbm::serve {

/// Replica-sharded serving knobs.
struct RouterConfig {
  /// MicroBatcher replicas (clamped to >= 1).
  std::size_t replicas = 1;
  /// Per-replica batching policy; max_pending_rows bounds each model
  /// queue.
  BatcherConfig batcher;
  /// Capacity of the ModelStore shared by every replica.
  std::size_t store_capacity = 8;
};

/// N MicroBatcher replicas behind one shared ModelStore.
class Router {
 public:
  explicit Router(const RouterConfig& config = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Queues `rows` for a batched Transform through the model cached
  /// under `model_key` (loaded from that path on first use), on the
  /// key's replica (ReplicaFor). The future resolves to features
  /// bit-identical to Model::Transform(rows). Overflow, unknown models,
  /// shape mismatches, and post-Shutdown submissions resolve it
  /// immediately with a non-OK Status. A non-null `trace` collects
  /// load/queue/exec spans (obs/trace.h).
  std::future<StatusOr<linalg::Matrix>> Submit(
      const std::string& model_key, linalg::Matrix rows,
      std::shared_ptr<obs::TraceContext> trace = {});

  /// Routes `rows` to `model_key`'s replica for a batched Transform,
  /// then clusters and scores against `labels` like Model::Evaluate.
  std::future<StatusOr<api::EvalResult>> SubmitEvaluate(
      const std::string& model_key, linalg::Matrix rows,
      std::vector<int> labels, api::EvalOptions options = {},
      std::shared_ptr<obs::TraceContext> trace = {});

  /// Hot-swaps `model_key` from disk in the shared store: one swap is
  /// seen by every replica. In-flight batches finish on the old instance.
  /// A non-null `trace` receives a "reload" span for the disk read.
  Status Reload(const std::string& model_key,
                obs::TraceContext* trace = nullptr);

  /// The model cache shared by all replicas (pre-loading, in-memory Put).
  ModelStore& store() { return store_; }

  /// The replica every submission for `key` lands on: FNV-1a over the
  /// key, mod replicas(). Deterministic across runs and standard
  /// libraries.
  std::size_t ReplicaFor(const std::string& key) const;

  std::size_t replicas() const { return batchers_.size(); }

  /// Flushes every replica's pending requests and stops serving;
  /// idempotent. Later submissions fail with kUnavailable.
  void Shutdown();

  /// Merged observability snapshot: every replica's registry (queue-wait
  /// / batch-exec histograms merge bucket-wise, counters and gauges sum)
  /// plus the shared store's registry folded in exactly once, plus the
  /// router-level serve_replicas gauge.
  obs::MetricsSnapshot metrics_snapshot() const;

 private:
  ModelStore store_;
  std::vector<std::unique_ptr<MicroBatcher>> batchers_;
};

}  // namespace mcirbm::serve

#endif  // MCIRBM_SERVE_ROUTER_H_
