#include "serve/micro_batcher.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>

#include "util/timer.h"

namespace mcirbm::serve {

namespace {

/// Ready future carrying an error, for submissions rejected up front.
template <typename T>
std::future<StatusOr<T>> FailedFuture(Status status) {
  std::promise<StatusOr<T>> promise;
  promise.set_value(std::move(status));
  return promise.get_future();
}

}  // namespace

MicroBatcher::MicroBatcher(const BatcherConfig& config)
    : config_(config), flusher_([this] { FlusherLoop(); }) {}

MicroBatcher::~MicroBatcher() { Shutdown(); }

void MicroBatcher::UpdateGauges(const std::string& key) {
  // A drained key has no map entry, so both gauges read 0.
  const auto it = queues_.find(key);
  double depth = 0.0;
  double rows = 0.0;
  if (it != queues_.end()) {
    depth = static_cast<double>(it->second.pending.size());
    rows = static_cast<double>(it->second.pending_rows +
                               it->second.sealed_rows);
  }
  registry_.gauge("serve_queue_depth", key).Set(depth);
  registry_.gauge("serve_pending_rows", key).Set(rows);
}

Status MicroBatcher::Enqueue(
    std::shared_ptr<const api::Model> model, const std::string& key,
    linalg::Matrix rows,
    std::function<void(StatusOr<linalg::Matrix>)> complete,
    std::shared_ptr<obs::TraceContext> trace) {
  if (model == nullptr || !model->valid()) {
    return Status::InvalidArgument("submit requires a loaded model");
  }
  if (rows.rows() == 0) {
    return Status::InvalidArgument("submit requires at least one row");
  }
  if (rows.cols() != model->num_visible()) {
    return Status::InvalidArgument(
        "request has " + std::to_string(rows.cols()) +
        " features but model '" + key + "' expects " +
        std::to_string(model->num_visible()));
  }
  const std::int64_t now = MonotonicMicros();
  {
    MutexLock lock(mu_);
    if (stopping_) {
      return Status::Unavailable("micro-batcher is shut down");
    }
    // Backpressure, checked before any mutation. The find() miss is what
    // admits the first request into an empty queue unconditionally
    // (mirroring max_batch_rows, so one oversized request can still be
    // served): a key present in the map always holds at least one
    // pending row.
    auto queue_it = queues_.find(key);
    if (config_.max_pending_rows > 0 && queue_it != queues_.end()) {
      // Swap-sealed batches the flusher has not claimed yet still hold
      // this key's memory, so they count against the bound too — a
      // Reload-heavy client cannot launder rows past backpressure by
      // sealing them.
      const std::size_t held =
          queue_it->second.pending_rows + queue_it->second.sealed_rows;
      if (held + rows.rows() > config_.max_pending_rows) {
        registry_.counter("serve_rejected_total", key).Increment();
        return Status::Unavailable(
            "queue for model '" + key + "' is full (" +
            std::to_string(held) + " of " +
            std::to_string(config_.max_pending_rows) + " pending rows)");
      }
    }
    Queue& queue =
        queue_it != queues_.end() ? queue_it->second : queues_[key];
    if (!queue.pending.empty() &&
        queue.model.get() != model.get()) {
      // The key was hot-reloaded while requests were queued: seal the
      // current queue as ready batches so earlier requests finish on the
      // instance they were submitted against, and start a fresh queue on
      // the new model. Never mix two instances in one batch, and respect
      // max_batch_rows — a long queue seals as a sequence of capped
      // batches (whole requests each; a single oversized request still
      // forms one oversized batch, exactly like the regular flush path).
      std::vector<Request> pending = std::move(queue.pending);
      std::shared_ptr<const api::Model> swapped = std::move(queue.model);
      queue.sealed_rows += queue.pending_rows;
      std::size_t taken = 0;
      while (taken < pending.size()) {
        Batch sealed;
        sealed.model = swapped;
        sealed.key = key;
        sealed.trigger = FlushTrigger::kSwap;
        while (taken < pending.size()) {
          const std::size_t request_rows = pending[taken].rows.rows();
          if (!sealed.requests.empty() &&
              sealed.rows + request_rows > config_.max_batch_rows) {
            break;
          }
          sealed.rows += request_rows;
          sealed.requests.push_back(std::move(pending[taken]));
          ++taken;
        }
        ready_.push_back(std::move(sealed));
      }
      queue.pending.clear();
      queue.pending_rows = 0;
    }
    if (queue.pending.empty()) {
      queue.model = std::move(model);
      queue.oldest_micros = now;
    }
    queue.pending_rows += rows.rows();
    const std::size_t accepted_rows = rows.rows();
    queue.pending.push_back(
        Request{std::move(rows), now, std::move(complete), std::move(trace)});
    registry_.counter("serve_requests_total", key).Increment();
    registry_.counter("serve_rows_total", key).Increment(accepted_rows);
    UpdateGauges(key);
  }
  cv_.NotifyOne();
  return Status::Ok();
}

std::future<StatusOr<linalg::Matrix>> MicroBatcher::SubmitTransform(
    std::shared_ptr<const api::Model> model, const std::string& key,
    linalg::Matrix rows, std::shared_ptr<obs::TraceContext> trace) {
  auto promise =
      std::make_shared<std::promise<StatusOr<linalg::Matrix>>>();
  auto future = promise->get_future();
  const Status queued = Enqueue(
      std::move(model), key, std::move(rows),
      [promise](StatusOr<linalg::Matrix> features) {
        promise->set_value(std::move(features));
      },
      std::move(trace));
  if (!queued.ok()) return FailedFuture<linalg::Matrix>(queued);
  return future;
}

std::future<StatusOr<api::EvalResult>> MicroBatcher::SubmitEvaluate(
    std::shared_ptr<const api::Model> model, const std::string& key,
    linalg::Matrix rows, std::vector<int> labels,
    api::EvalOptions options, std::shared_ptr<obs::TraceContext> trace) {
  if (labels.size() != rows.rows()) {
    return FailedFuture<api::EvalResult>(Status::InvalidArgument(
        "labels length " + std::to_string(labels.size()) +
        " does not match " + std::to_string(rows.rows()) + " rows"));
  }
  auto promise =
      std::make_shared<std::promise<StatusOr<api::EvalResult>>>();
  auto future = promise->get_future();
  const Status queued = Enqueue(
      std::move(model), key, std::move(rows),
      [promise, labels = std::move(labels),
       options](StatusOr<linalg::Matrix> features) {
        if (!features.ok()) {
          promise->set_value(features.status());
          return;
        }
        promise->set_value(
            api::EvaluateFeatures(features.value(), labels, options));
      },
      std::move(trace));
  if (!queued.ok()) return FailedFuture<api::EvalResult>(queued);
  return future;
}

void MicroBatcher::Shutdown() {
  std::thread to_join;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    // Claim the thread handle under the lock so concurrent Shutdown
    // calls (user + destructor) cannot both join it.
    if (flusher_.joinable()) to_join = std::move(flusher_);
  }
  cv_.NotifyAll();
  if (to_join.joinable()) to_join.join();
}

void MicroBatcher::FlusherLoop() {
  const std::int64_t queue_wait =
      std::max<std::int64_t>(0, config_.max_queue_micros);
  MutexLock lock(mu_);
  for (;;) {
    bool any_pending = !ready_.empty();
    std::int64_t next_deadline_micros =
        std::numeric_limits<std::int64_t>::max();
    for (const auto& [key, queue] : queues_) {
      if (queue.pending.empty()) continue;
      any_pending = true;
      next_deadline_micros =
          std::min(next_deadline_micros, queue.oldest_micros + queue_wait);
    }
    if (!any_pending) {
      if (stopping_) return;
      cv_.Wait(mu_);
      continue;
    }

    const std::int64_t now = MonotonicMicros();
    // Batches sealed by Enqueue (model hot-swap) flush ahead of the
    // regular queues; claiming them releases their rows from the keys'
    // backpressure accounting.
    std::vector<Batch> due = std::move(ready_);
    ready_.clear();
    for (const Batch& sealed : due) {
      auto it = queues_.find(sealed.key);
      if (it != queues_.end()) it->second.sealed_rows -= sealed.rows;
    }
    for (auto it = queues_.begin(); it != queues_.end();) {
      Queue& queue = it->second;
      const bool full = queue.pending_rows >= config_.max_batch_rows;
      if (queue.pending.empty() ||
          (!full && !stopping_ &&
           now < queue.oldest_micros + queue_wait)) {
        ++it;
        continue;
      }
      // Carve off whole requests up to max_batch_rows per batch. The
      // first request always goes in, so one oversized request forms one
      // oversized batch. Anything left over stays queued; the loop
      // re-evaluates immediately, so a backlog drains as a sequence of
      // capped batches rather than one unbounded pass.
      Batch batch;
      batch.model = queue.model;
      batch.key = it->first;
      batch.trigger = full ? FlushTrigger::kFull : FlushTrigger::kDeadline;
      std::size_t take = 0;
      while (take < queue.pending.size()) {
        const std::size_t request_rows = queue.pending[take].rows.rows();
        if (take > 0 && batch.rows + request_rows > config_.max_batch_rows) {
          break;
        }
        batch.rows += request_rows;
        ++take;
      }
      batch.requests.assign(
          std::make_move_iterator(queue.pending.begin()),
          std::make_move_iterator(queue.pending.begin() + take));
      queue.pending.erase(queue.pending.begin(),
                          queue.pending.begin() + take);
      queue.pending_rows -= batch.rows;
      due.push_back(std::move(batch));
      if (queue.pending.empty()) {
        // Drop the drained entry: a long-lived server sees many distinct
        // keys, and a lingering Queue would both pin its model shared_ptr
        // (defeating the ModelStore LRU bound) and grow the per-wakeup
        // scan without bound.
        it = queues_.erase(it);
      } else {
        queue.oldest_micros = queue.pending.front().enqueued_micros;
        ++it;
      }
    }
    if (due.empty()) {
      cv_.WaitForMicros(mu_, next_deadline_micros - now);
      continue;
    }

    // Record queue waits and flush accounting while still locked, then
    // run the (possibly slow) batched passes without holding the lock so
    // submitters keep queuing into the next batch.
    for (const Batch& batch : due) {
      const char* trigger_counter = "serve_deadline_flushes_total";
      if (batch.trigger == FlushTrigger::kFull) {
        trigger_counter = "serve_full_flushes_total";
      } else if (batch.trigger == FlushTrigger::kSwap) {
        trigger_counter = "serve_swap_flushes_total";
      }
      registry_.counter(trigger_counter, batch.key).Increment();
      registry_.counter("serve_batches_total", batch.key).Increment();
      obs::Histogram& queue_wait_histogram =
          registry_.histogram("serve_queue_wait_micros", batch.key);
      for (const Request& request : batch.requests) {
        queue_wait_histogram.Record(
            static_cast<double>(now - request.enqueued_micros));
        if (request.trace != nullptr) {
          request.trace->AddSpan("queue", request.enqueued_micros,
                                 now - request.enqueued_micros, batch.key,
                                 request.rows.rows());
        }
      }
      UpdateGauges(batch.key);
    }
    lock.Unlock();
    for (Batch& batch : due) ExecuteBatch(&batch);
    lock.Lock();
  }
}

void MicroBatcher::ExecuteBatch(Batch* batch) {
  obs::Histogram& exec_histogram =
      registry_.histogram("serve_batch_exec_micros", batch->key);
  const std::int64_t started = MonotonicMicros();
  // A lone request needs no assembly or slicing: its rows *are* the
  // batch, and the result matrix is handed over whole.
  if (batch->requests.size() == 1) {
    Request& request = batch->requests.front();
    auto features = batch->model->Transform(request.rows);
    const std::int64_t finished = MonotonicMicros();
    exec_histogram.Record(static_cast<double>(finished - started));
    if (request.trace != nullptr) {
      request.trace->AddSpan("exec", started, finished - started, batch->key,
                             batch->rows);
    }
    request.complete(std::move(features));
    return;
  }

  const std::size_t cols = batch->requests.front().rows.cols();
  linalg::Matrix assembled(batch->rows, cols);
  std::size_t offset = 0;
  for (const Request& request : batch->requests) {
    std::memcpy(assembled.data() + offset * cols, request.rows.data(),
                request.rows.size() * sizeof(double));
    offset += request.rows.rows();
  }

  auto features = batch->model->Transform(assembled);
  const std::int64_t finished = MonotonicMicros();
  exec_histogram.Record(static_cast<double>(finished - started));
  // The batch's exec span lands on every traced request in the flush,
  // attributed with the batch's total rows — a request's timeline shows
  // the pass it actually rode, not a per-slice fiction.
  for (const Request& request : batch->requests) {
    if (request.trace != nullptr) {
      request.trace->AddSpan("exec", started, finished - started, batch->key,
                             batch->rows);
    }
  }
  if (!features.ok()) {
    for (Request& request : batch->requests) {
      request.complete(features.status());
    }
    return;
  }

  // Hand each request its row slice. Rows are independent through every
  // inference kernel, so the slice is bit-identical to a one-at-a-time
  // Transform of the same rows.
  const linalg::Matrix& all = features.value();
  offset = 0;
  for (Request& request : batch->requests) {
    linalg::Matrix slice(request.rows.rows(), all.cols());
    std::memcpy(slice.data(), all.data() + offset * all.cols(),
                slice.size() * sizeof(double));
    offset += request.rows.rows();
    request.complete(std::move(slice));
  }
}

std::size_t MicroBatcher::pending_queues() const {
  MutexLock lock(mu_);
  return queues_.size() + ready_.size();
}

}  // namespace mcirbm::serve
