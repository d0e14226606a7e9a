// MicroBatcher — request coalescing for the serving layer.
//
// Single-row (or small) Transform/Evaluate requests are queued per model
// and flushed as one batched matrix pass when either trigger fires:
//
//   - the model's queue reaches `max_batch_rows` pending rows, or
//   - the oldest pending request has waited `max_queue_micros`.
//
// One background flusher thread assembles each due batch, runs a single
// api::Model::Transform over the concatenated rows (which fans out across
// the global parallel::ThreadPool exactly like any other kernel), and
// completes each request's future with its row slice. Because every
// inference kernel is row-independent and shard boundaries depend only on
// the problem shape, a request's slice is bit-identical to what a
// one-at-a-time Transform call would have produced — batching changes
// throughput, never results (pinned by tests/serve/micro_batcher_test.cc).
//
// Evaluate requests ride the same per-model queue: their rows join the
// batched Transform pass, then the clusterer + metrics run on the
// request's own feature slice via api::EvaluateFeatures — the identical
// post-transform code path Model::Evaluate uses.
//
// Queues for different models never mix; each flush serves exactly one
// model. Shutdown flushes everything still pending (no request is ever
// abandoned) and subsequent submissions fail with kUnavailable.
//
// Backpressure is fail-fast: when a queue is over max_pending_rows, the
// submission's future resolves immediately with kUnavailable (counted in
// serve_rejected_total) — overflow never blocks the caller and never
// drops a request silently.
//
// Observability: the batcher's own obs::Registry is its only record of
// what it did — per-model-key serve_queue_wait_micros /
// serve_batch_exec_micros histograms, serve_queue_depth /
// serve_pending_rows gauges (requests and rows waiting for a batch; both
// read 0 once every accepted request has resolved),
// serve_{requests,rows,batches,rejected}_total counters, and one
// serve_{full,deadline,swap}_flushes_total counter per flush trigger (the
// three always sum to serve_batches_total). All timing reads
// util::MonotonicMicros(), the same clock as the bench drivers.
//
// Tracing: a submission may carry an obs::TraceContext (null for the
// common untraced case — one branch per stage). A traced request gets a
// "queue" span (enqueue -> flush claim) and an "exec" span covering its
// batch's Transform pass; the exec span is shared by every request in
// the flush and attributed with the batch's total row count, which is
// exactly what makes coalescing visible in a timeline.
#ifndef MCIRBM_SERVE_MICRO_BATCHER_H_
#define MCIRBM_SERVE_MICRO_BATCHER_H_

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/model.h"
#include "linalg/matrix.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mcirbm::serve {

/// Batching policy knobs.
struct BatcherConfig {
  /// Flush a model's queue once this many rows are pending. A single
  /// request larger than this still forms one (oversized) batch.
  std::size_t max_batch_rows = 64;
  /// Flush a non-empty queue once its oldest request has waited this long.
  std::int64_t max_queue_micros = 200;
  /// Backpressure: reject a submission with kUnavailable when its model's
  /// queue already holds this many pending rows (0 = unbounded). The
  /// first request into an empty queue is always admitted, so a single
  /// oversized request can still be served.
  std::size_t max_pending_rows = 0;
};

/// Coalesces per-model inference requests into batched passes.
class MicroBatcher {
 public:
  explicit MicroBatcher(const BatcherConfig& config = {});
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Queues `rows` (n x num_visible) for a batched Transform through
  /// `model`. The future resolves to this request's feature rows,
  /// bit-identical to `model->Transform(rows)`. Shape errors and
  /// submissions after Shutdown resolve immediately with a non-OK Status.
  /// `key` groups requests into batches. If the instance behind a key
  /// changes while requests are queued (hot reload), the old queue is
  /// sealed and flushed on the instance those requests were submitted
  /// against; one batch never mixes two instances.
  /// `trace` (optional) collects "queue" and "exec" spans for this
  /// request; null (the default) records nothing.
  std::future<StatusOr<linalg::Matrix>> SubmitTransform(
      std::shared_ptr<const api::Model> model, const std::string& key,
      linalg::Matrix rows, std::shared_ptr<obs::TraceContext> trace = {});

  /// Queues `rows` for the batched Transform pass, then clusters this
  /// request's feature slice and scores it against `labels` — equivalent
  /// to `model->Evaluate(rows, labels, options)` bit for bit.
  std::future<StatusOr<api::EvalResult>> SubmitEvaluate(
      std::shared_ptr<const api::Model> model, const std::string& key,
      linalg::Matrix rows, std::vector<int> labels,
      api::EvalOptions options = {},
      std::shared_ptr<obs::TraceContext> trace = {});

  /// Flushes all pending requests, stops the flusher thread, and fails
  /// subsequent submissions with kUnavailable. Idempotent; also run by
  /// the destructor.
  void Shutdown();

  /// Number of model keys with requests currently queued (drained keys
  /// are dropped, so an idle batcher reports 0 regardless of how many
  /// distinct keys it has ever served).
  std::size_t pending_queues() const;

  /// This batcher's counters, gauges and histograms (see the header
  /// comment); serve::Router merges one per replica.
  obs::MetricsSnapshot metrics_snapshot() const {
    return registry_.snapshot();
  }

 private:
  // One queued request: its rows plus a completion invoked with the
  // request's feature slice (or the batch's error).
  struct Request {
    linalg::Matrix rows;
    std::int64_t enqueued_micros = 0;  // util::MonotonicMicros timebase
    std::function<void(StatusOr<linalg::Matrix>)> complete;
    // Shared (not raw): if the submitter abandons the request's future
    // early, the flusher still holds a live context when it records the
    // queue/exec spans. Null for untraced requests — a null shared_ptr
    // copy is free, so the untraced path stays one branch per stage.
    std::shared_ptr<obs::TraceContext> trace;
  };

  // Per-model pending queue.
  struct Queue {
    std::shared_ptr<const api::Model> model;
    std::vector<Request> pending;
    std::size_t pending_rows = 0;
    // Rows this key sealed into ready_ that the flusher has not yet
    // claimed. Counted against max_pending_rows so a Reload-heavy
    // client cannot grow sealed batches past the backpressure bound,
    // and in serve_pending_rows.
    std::size_t sealed_rows = 0;
    std::int64_t oldest_micros = 0;  // enqueue time of pending.front()
  };

  // What fired a batch — counted in serve_<trigger>_flushes_total.
  enum class FlushTrigger {
    kFull,      // the queue reached max_batch_rows
    kDeadline,  // the oldest request timed out (or Shutdown drained it)
    kSwap,      // sealed by Enqueue on a model hot-swap
  };

  // A due queue detached from the map for execution outside the lock.
  struct Batch {
    std::shared_ptr<const api::Model> model;
    std::string key;
    std::vector<Request> requests;
    std::size_t rows = 0;
    FlushTrigger trigger = FlushTrigger::kDeadline;
  };

  /// Validates and enqueues; returns non-OK without queuing on bad input.
  Status Enqueue(std::shared_ptr<const api::Model> model,
                 const std::string& key, linalg::Matrix rows,
                 std::function<void(StatusOr<linalg::Matrix>)> complete,
                 std::shared_ptr<obs::TraceContext> trace);
  void FlusherLoop() MCIRBM_EXCLUDES(mu_);
  /// Runs one batched pass and completes its requests, without the lock.
  void ExecuteBatch(Batch* batch) MCIRBM_EXCLUDES(mu_);
  /// Refreshes this key's queue-depth / pending-rows gauges from its
  /// queue: pending requests, and pending plus sealed rows.
  void UpdateGauges(const std::string& key) MCIRBM_REQUIRES(mu_);

  const BatcherConfig config_;
  obs::Registry registry_;
  mutable Mutex mu_;
  CondVar cv_;
  std::map<std::string, Queue> queues_ MCIRBM_GUARDED_BY(mu_);
  /// Sealed by Enqueue on model hot-swap.
  std::vector<Batch> ready_ MCIRBM_GUARDED_BY(mu_);
  bool stopping_ MCIRBM_GUARDED_BY(mu_) = false;
  // Claimed (moved out) under mu_ by Shutdown so user + destructor
  // cannot both join it. Last member: started after everything above.
  std::thread flusher_ MCIRBM_GUARDED_BY(mu_);
};

}  // namespace mcirbm::serve

#endif  // MCIRBM_SERVE_MICRO_BATCHER_H_
