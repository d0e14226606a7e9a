// serve::Router — the serving unit: one shared ModelStore in front of N
// MicroBatcher replicas, with replica routing and admission control.
//
//   serve::RouterConfig config;
//   config.replicas = 4;
//   config.batcher.max_pending_rows = 256;   // per-queue bound
//   config.max_inflight_requests = 4096;     // global bound
//   serve::Router router(config);
//   auto features = router.Submit("encoder.mcirbm", row);   // future
//   auto scored = router.SubmitEvaluate("encoder.mcirbm", rows, labels);
//   router.Shutdown();  // flushes pending work; later submits fail
//
// Submit picks a replica, resolves the model key through the store
// (loading the artifact from that path on first use), and queues the
// rows on the replica's batcher. Each replica is a MicroBatcher with its
// own flusher thread — the unit worth replicating on a multi-socket box;
// one replica is the single-server case. The store is shared, so an
// artifact loaded (or Put) once serves every replica, and Reload swaps
// it for all of them atomically. Submissions are safe from any number
// of client threads, and results are bit-identical to calling
// api::Model::Transform / Evaluate directly at any replica count
// (pinned by tests/serve/router_test.cc at 1/2/4 replicas).
//
// Admission control is fail-fast at both granularities: a submission
// that would push a model's queue past max_pending_rows, or the whole
// router past max_inflight_requests, resolves its future immediately
// with StatusCode::kUnavailable (counted in serve_rejected_total).
// Overflow never blocks the caller and never drops a request silently.
//
// Routing is pluggable (RouterConfig::routing): kKeyHash binds each key
// to its hash replica forever; kLeastLoaded sends an idle key to the
// replica with the smallest pending-rows load, while keys with requests
// still coalescing or executing stay pinned to their replica so one
// model's traffic keeps batching together. Either way, per-key results
// are bit-identical (pinned by tests/serve/router_test.cc).
//
// Observability: the component registries are the only counters.
// metrics_snapshot() merges every replica's obs::Registry with the
// store's into one view; RenderStatsText() is the text form served by
// `op=stats` and `--stats-every`, and the CLI's `# served=` summary line
// is derived from the same snapshot.
#ifndef MCIRBM_SERVE_ROUTER_H_
#define MCIRBM_SERVE_ROUTER_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/model.h"
#include "linalg/matrix.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/micro_batcher.h"
#include "serve/model_store.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mcirbm::serve {

/// How the Router picks a replica for a model key.
enum class RoutingMode {
  /// Deterministic FNV-1a hash of the key, mod replica count. A key is
  /// permanently bound to one replica regardless of load.
  kKeyHash,
  /// The replica with the smallest pending-rows load at submit time —
  /// except for keys with requests still coalescing or executing on a
  /// replica, which stay pinned there so one model's requests keep
  /// batching together. Per-key results are bit-identical to kKeyHash
  /// (every inference is row-independent and all replicas share one
  /// store); only the queueing changes.
  kLeastLoaded,
};

/// Replica-sharded serving knobs.
struct RouterConfig {
  /// MicroBatcher replicas (clamped to >= 1).
  std::size_t replicas = 1;
  /// Replica selection policy; see RoutingMode.
  RoutingMode routing = RoutingMode::kKeyHash;
  /// Global admission bound: submissions beyond this many unresolved
  /// futures (across all replicas) are rejected with kUnavailable.
  /// 0 = unbounded.
  std::uint64_t max_inflight_requests = 0;
  /// Per-replica batching policy. max_pending_rows bounds each model
  /// queue; the admission field is overwritten by the router's shared
  /// controller.
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
  /// replica the routing policy picks. The future resolves to features
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

  /// Deterministic replica index for `key` (exposed for tests and
  /// capacity planning): FNV-1a over the key, mod replicas(). This is
  /// the kKeyHash policy; under kLeastLoaded it is only the tiebreak.
  std::size_t ReplicaFor(const std::string& key) const;

  /// The replica the next submission for `key` would land on under the
  /// configured routing mode (for kLeastLoaded this consults live load
  /// and updates the pin table exactly like Submit).
  std::size_t RouteFor(const std::string& key);

  std::size_t replicas() const { return batchers_.size(); }

  /// Unresolved futures currently admitted (0 when unbounded — the
  /// gauge is only maintained when max_inflight_requests is set).
  std::uint64_t inflight_requests() const;

  /// Flushes every replica's pending requests and stops serving;
  /// idempotent. Later submissions fail with kUnavailable.
  void Shutdown();

  /// Merged observability snapshot: every replica's registry (queue-wait
  /// / batch-exec histograms merge bucket-wise, counters and gauges sum)
  /// plus the shared store's registry folded in exactly once, plus the
  /// router-level serve_replicas / serve_inflight_requests gauges.
  obs::MetricsSnapshot metrics_snapshot() const;

  /// metrics_snapshot() rendered as Prometheus-style text — the payload
  /// of the `op=stats` serve request and `--stats-every` emission.
  std::string RenderStatsText() const {
    return metrics_snapshot().RenderText();
  }

 private:
  /// Applies the routing policy; under kLeastLoaded takes routing_mu_
  /// and maintains the key-pin table.
  std::size_t PickReplica(const std::string& key);

  RoutingMode routing_ = RoutingMode::kKeyHash;
  ModelStore store_;
  std::shared_ptr<AdmissionController> admission_;
  std::vector<std::unique_ptr<MicroBatcher>> batchers_;
  // kLeastLoaded state: the replica each recently routed key went to.
  // An entry is authoritative while the key still has load on that
  // replica (pinned); stale entries are re-resolved on next use and
  // swept once the table outgrows kMaxIdleAssignments.
  Mutex routing_mu_;
  std::map<std::string, std::size_t> assignments_
      MCIRBM_GUARDED_BY(routing_mu_);
};

}  // namespace mcirbm::serve

#endif  // MCIRBM_SERVE_ROUTER_H_
