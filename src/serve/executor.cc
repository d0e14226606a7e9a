#include "serve/executor.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <sstream>
#include <thread>
#include <utility>

#include "data/io.h"
#include "data/loaders.h"
#include "data/transforms.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace mcirbm::serve {

namespace {

// Client-side backpressure policy: a submission rejected with
// kUnavailable (its model's queue is full) is retried after the oldest
// outstanding future drains — the natural response to backpressure; the
// queue empties as the flusher claims its batches. The retry cap turns a
// logic error (e.g. a bound no single request can ever fit under) into a
// failed request instead of a hung driver.
constexpr int kMaxOverflowRetries = 100000;
constexpr std::chrono::microseconds kOverflowBackoff(100);

// "ok id=X op=..." / "error id=X ..." — the id echo is always the first
// key after the status word so a pipelined client can match responses
// with one token scan.
void AppendIdEcho(std::ostringstream* out, const std::string& id) {
  if (!id.empty()) *out << " id=" << id;
}

}  // namespace

RequestExecutor::RequestExecutor(Router* router, const ExecutorConfig& config)
    : router_(router),
      datasets_(std::max<std::size_t>(1, config.dataset_cache_capacity)),
      trace_store_(config.trace_store) {}

std::shared_ptr<obs::TraceContext> RequestExecutor::StartTrace(
    const Request& request, std::int64_t start_micros) {
  if (trace_store_ == nullptr) return nullptr;
  return trace_store_->MaybeStartTrace(request.op, request.id, start_micros);
}

void RequestExecutor::FinishTrace(
    const std::shared_ptr<obs::TraceContext>& trace) {
  if (trace_store_ == nullptr || trace == nullptr) return;
  trace_store_->Finish(trace, MonotonicMicros());
}

void RequestExecutor::AddStatsRegistry(const obs::Registry* registry) {
  extra_registries_.push_back(registry);
}

StatusOr<std::shared_ptr<const data::Dataset>>
RequestExecutor::DatasetCache::Get(const std::string& path,
                                   const std::string& transform) {
  const std::string key = transform + "|" + path;
  {
    MutexLock lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  // Load and preprocess outside the lock so a slow disk read does not
  // serialize every concurrent handler; two racing misses both load and
  // the re-check below hands the second one the first one's entry.
  // `path` is a loader spec, so serving accepts every registered dataset
  // format (csv, binary, libsvm, synth) through one cache.
  auto loaded = data::LoadDataset(path);
  if (!loaded.ok()) return loaded.status();
  data::Dataset ds = std::move(loaded).value();
  const Status transformed = data::ApplyTransform(transform, &ds.x);
  if (!transformed.ok()) return transformed;
  auto shared = std::make_shared<const data::Dataset>(std::move(ds));
  MutexLock lock(mu_);
  // A racing miss inserted the key first: inserting again would evict a
  // live entry for a key that is already cached.
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  while (cache_.size() >= capacity_) {
    cache_.erase(order_.front());
    order_.pop_front();
  }
  order_.push_back(key);
  cache_[key] = shared;
  return shared;
}

StatusOr<std::string> RequestExecutor::ExecuteTransform(
    const Request& request, const data::Dataset& ds,
    const std::shared_ptr<obs::TraceContext>& trace) {
  const std::size_t rows = ds.x.rows();
  const std::size_t cols = ds.x.cols();
  const std::size_t num_chunks = (rows + request.chunk - 1) / request.chunk;
  std::vector<linalg::Matrix> parts(num_chunks);
  // Chunks accepted but not yet resolved, oldest first.
  std::deque<std::pair<std::size_t, std::future<StatusOr<linalg::Matrix>>>>
      outstanding;
  auto resolve_oldest = [&]() -> Status {
    auto [index, future] = std::move(outstanding.front());
    outstanding.pop_front();
    auto part = future.get();
    if (!part.ok()) return part.status();
    parts[index] = std::move(part).value();
    return Status::Ok();
  };

  int retries = 0;
  std::size_t chunk_index = 0;
  for (std::size_t begin = 0; begin < rows;
       begin += request.chunk, ++chunk_index) {
    const std::size_t end = std::min(begin + request.chunk, rows);
    for (;;) {
      linalg::Matrix slice(end - begin, cols);
      std::copy_n(ds.x.data() + begin * cols, slice.size(), slice.data());
      // Only the first chunk carries the trace: later chunks queue and
      // execute concurrently with it, and overlapping spans would break
      // the sum-of-spans <= end-to-end accounting the timeline promises.
      auto future = router_->Submit(request.model, std::move(slice),
                                    chunk_index == 0 ? trace : nullptr);
      if (future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        outstanding.emplace_back(chunk_index, std::move(future));
        break;
      }
      // Already resolved: either a fast completion, a rejection to retry,
      // or a real error.
      auto result = future.get();
      if (result.ok()) {
        parts[chunk_index] = std::move(result).value();
        break;
      }
      if (result.status().code() != StatusCode::kUnavailable ||
          ++retries > kMaxOverflowRetries) {
        return result.status();
      }
      if (outstanding.empty()) {
        std::this_thread::sleep_for(kOverflowBackoff);
      } else {
        const Status drained = resolve_oldest();
        if (!drained.ok()) return drained;
      }
    }
  }
  while (!outstanding.empty()) {
    const Status drained = resolve_oldest();
    if (!drained.ok()) return drained;
  }

  const std::int64_t format_start = MonotonicMicros();
  linalg::Matrix features;
  std::size_t offset = 0;
  for (linalg::Matrix& part : parts) {
    if (features.empty()) features.Resize(rows, part.cols());
    std::copy_n(part.data(), part.size(),
                features.data() + offset * features.cols());
    offset += part.rows();
  }
  const std::size_t feature_rows = features.rows();
  std::ostringstream response;
  response << "ok";
  AppendIdEcho(&response, request.id);
  response << " op=transform model=" << request.model
           << " data=" << request.data << " rows=" << features.rows()
           << " cols=" << features.cols() << " requests=" << num_chunks
           << " retries=" << retries
           << " sum=" << FormatDouble(features.Sum(), 6) << "\n";
  if (!request.out.empty()) {
    data::Dataset out_ds = ds;
    out_ds.x = std::move(features);
    out_ds.name = ds.name + ":hidden";
    const Status saved = data::SaveDatasetCsv(out_ds, request.out);
    if (!saved.ok()) return saved;
  }
  if (trace != nullptr) {
    trace->AddSpan("format", format_start, MonotonicMicros() - format_start,
                   request.model, feature_rows);
  }
  return response.str();
}

StatusOr<std::string> RequestExecutor::ExecuteEvaluate(
    const Request& request, const data::Dataset& ds,
    const std::shared_ptr<obs::TraceContext>& trace) {
  api::EvalOptions options;
  options.clusterer = request.clusterer;
  options.k = request.k;
  options.seed = request.seed;
  StatusOr<api::EvalResult> result = Status::Unavailable("not submitted");
  for (int retries = 0;; ++retries) {
    // A rejected submission never enqueues, so re-passing the trace on a
    // retry cannot double-record queue spans.
    result = router_->SubmitEvaluate(request.model, ds.x, ds.labels, options,
                                     trace)
                 .get();
    if (result.ok() ||
        result.status().code() != StatusCode::kUnavailable ||
        retries >= kMaxOverflowRetries) {
      break;
    }
    std::this_thread::sleep_for(kOverflowBackoff);
  }
  if (!result.ok()) return result.status();
  const std::int64_t format_start = MonotonicMicros();
  const metrics::MetricBundle& m = result.value().metrics;
  std::ostringstream response;
  response << "ok";
  AppendIdEcho(&response, request.id);
  response << " op=evaluate model=" << request.model
           << " data=" << request.data
           << " clusterer=" << request.clusterer
           << " clusters=" << result.value().clusters_found
           << " accuracy=" << FormatDouble(m.accuracy, 4)
           << " purity=" << FormatDouble(m.purity, 4)
           << " rand=" << FormatDouble(m.rand_index, 4)
           << " fmi=" << FormatDouble(m.fmi, 4)
           << " ari=" << FormatDouble(m.ari, 4)
           << " nmi=" << FormatDouble(m.nmi, 4) << "\n";
  if (trace != nullptr) {
    trace->AddSpan("format", format_start, MonotonicMicros() - format_start,
                   request.model, ds.x.rows());
  }
  return response.str();
}

std::string RequestExecutor::ExecuteStats(const Request& request) {
  // The ok line carries the metric-line count so a client knows how much
  // of the stream belongs to this response.
  const std::string rendered = RenderStatsText();
  const long metric_lines =
      std::count(rendered.begin(), rendered.end(), '\n');
  std::ostringstream response;
  response << "ok";
  AppendIdEcho(&response, request.id);
  response << " op=stats metrics=" << metric_lines << "\n" << rendered;
  return response.str();
}

std::string RequestExecutor::ExecuteTrace(const Request& request,
                                          const std::string& context,
                                          bool* ok_out) {
  if (trace_store_ == nullptr || !trace_store_->enabled()) {
    if (ok_out != nullptr) *ok_out = false;
    return FormatError(
        Status::Unavailable(
            "tracing is not enabled (start serve with --trace-sample N)"),
        request.id, context);
  }
  const std::vector<obs::Trace> recent = trace_store_->Recent(request.last);
  const std::string rendered = obs::TraceStore::RenderTracesText(recent);
  const long payload_lines =
      std::count(rendered.begin(), rendered.end(), '\n');
  std::ostringstream response;
  response << "ok";
  AppendIdEcho(&response, request.id);
  response << " op=trace traces=" << recent.size()
           << " lines=" << payload_lines << "\n" << rendered;
  return response.str();
}

StatusOr<std::string> RequestExecutor::ExecuteReload(
    const Request& request, obs::TraceContext* trace) {
  const Status reloaded = router_->Reload(request.model, trace);
  if (!reloaded.ok()) return reloaded;
  std::ostringstream response;
  response << "ok";
  AppendIdEcho(&response, request.id);
  response << " op=reload model=" << request.model << "\n";
  return response.str();
}

std::string RequestExecutor::Execute(
    const Request& request, const std::string& context, bool* ok_out,
    const std::shared_ptr<obs::TraceContext>& trace) {
  if (ok_out != nullptr) *ok_out = true;
  if (request.op == "stats") return ExecuteStats(request);
  if (request.op == "trace") return ExecuteTrace(request, context, ok_out);

  Status status = Status::Ok();
  StatusOr<std::string> response = Status::Internal("not executed");
  if (request.op == "reload") {
    response = ExecuteReload(request, trace.get());
    status = response.status();
  } else {
    const std::int64_t parse_start = MonotonicMicros();
    auto dataset = datasets_.Get(request.data, request.transform);
    if (dataset.ok() && trace != nullptr) {
      trace->AddSpan("parse", parse_start, MonotonicMicros() - parse_start,
                     request.data, dataset.value()->x.rows());
    }
    // Resolve the model once up front: a bad path fails the request with
    // one disk probe instead of one per submitted chunk. A store miss
    // contributes the trace's "load" span.
    auto model = router_->store().Get(request.model, trace.get());
    if (!dataset.ok()) {
      status = dataset.status();
    } else if (!model.ok()) {
      status = model.status();
    } else {
      response = request.op == "transform"
                     ? ExecuteTransform(request, *dataset.value(), trace)
                     : ExecuteEvaluate(request, *dataset.value(), trace);
      status = response.status();
    }
  }
  if (status.ok()) return std::move(response).value();
  if (ok_out != nullptr) *ok_out = false;
  return FormatError(status, request.id, context);
}

std::string RequestExecutor::FormatError(const Status& status,
                                         const std::string& id,
                                         const std::string& context) {
  std::ostringstream line;
  line << "error";
  AppendIdEcho(&line, id);
  if (!context.empty()) line << ' ' << context;
  line << ' ' << status.ToString() << "\n";
  return line.str();
}

std::string RequestExecutor::RenderStatsText() const {
  obs::MetricsSnapshot snapshot = router_->metrics_snapshot();
  for (const obs::Registry* registry : extra_registries_) {
    snapshot.Merge(registry->snapshot());
  }
  if (trace_store_ != nullptr) {
    snapshot.Merge(trace_store_->registry().snapshot());
  }
  return snapshot.RenderText();
}

std::string RequestExecutor::RenderStatsAndTracesText() const {
  std::string text = RenderStatsText();
  if (trace_store_ == nullptr || !trace_store_->enabled()) return text;
  const obs::TraceStore::Snapshot traces = trace_store_->snapshot();
  std::ostringstream section;
  section << "# traces recent=" << traces.traces.size()
          << " sampled=" << traces.sampled
          << " completed=" << traces.completed
          << " dropped=" << traces.dropped << "\n";
  text += section.str();
  text += obs::TraceStore::RenderTracesText(traces.traces, "# ");
  return text;
}

}  // namespace mcirbm::serve
