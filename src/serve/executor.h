// serve::RequestExecutor — executes parsed serve requests against a
// Router and formats the single-line (or, for stats, multi-line)
// responses of the protocol documented in serve/request.h.
//
// This is the piece between a request transport and the serving core:
// `mcirbm_cli serve` drives it from a file/stdin line loop, and
// net::LineServer drives it from per-connection TCP readers. Execute()
// is safe from any number of threads — the Router is concurrent by
// contract and the executor's dataset cache takes its own lock — which
// is what makes pipelined (out-of-order) execution of id-tagged network
// requests possible.
//
// Responsibilities:
//   - a bounded (path, transform) -> Dataset cache, so per-row request
//     streams do not re-read and re-preprocess the CSV each time;
//   - op=transform: chunked submission through Router::Submit with
//     client-side retry-after-drain when a full model queue rejects a
//     chunk with kUnavailable, in-order reassembly, optional out= CSV
//     write;
//   - op=evaluate: one whole-set SubmitEvaluate with the same retry
//     policy;
//   - op=stats: the Router's merged metrics snapshot, folded together
//     with any extra registries (the net layer's) registered via
//     AddStatsRegistry;
//   - op=trace: the most recent completed request traces from the
//     configured obs::TraceStore, one line per span;
//   - op=reload: a hot-swap through Router::Reload;
//   - response formatting, echoing the request's opaque id= tag as the
//     first key of every ok/error line.
//
// Tracing: when ExecutorConfig::trace_store is set, transports call
// StartTrace() after parsing a request and FinishTrace() after writing
// its response; the executor contributes parse and format spans and
// threads the context down through Router -> MicroBatcher/ModelStore for
// the queue/exec/load spans. With sampling off (the default) StartTrace
// returns null and every stage's check is a single branch.
//
// Execution failures come back as "error ..." response lines, never
// exceptions or aborts; the bool out-param distinguishes them so a
// driver can keep its own served/failed tally.
#ifndef MCIRBM_SERVE_EXECUTOR_H_
#define MCIRBM_SERVE_EXECUTOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/request.h"
#include "serve/router.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mcirbm::serve {

/// Request-execution knobs.
struct ExecutorConfig {
  /// Distinct (path, transform) datasets kept in memory (FIFO eviction).
  std::size_t dataset_cache_capacity = 8;
  /// Per-request trace sampling (obs/trace.h). Null disables tracing
  /// and makes op=trace fail; a store with sample_every_n == 0 behaves
  /// the same but still serves its (empty) counters.
  std::shared_ptr<obs::TraceStore> trace_store;
};

/// Executes parsed requests against a Router; shared by the CLI serve
/// loop and the net::LineServer transport.
class RequestExecutor {
 public:
  /// `router` must outlive the executor.
  explicit RequestExecutor(Router* router, const ExecutorConfig& config = {});

  RequestExecutor(const RequestExecutor&) = delete;
  RequestExecutor& operator=(const RequestExecutor&) = delete;

  /// Folds `registry`'s snapshot into every op=stats response (and
  /// RenderStatsText) in addition to the Router's own merge — how the
  /// net layer's net_* metrics join the stats surface. The registry must
  /// outlive the executor. Not thread-safe against concurrent Execute;
  /// register during setup.
  void AddStatsRegistry(const obs::Registry* registry);

  /// Executes one parsed request to completion (blocking on the
  /// Router's futures) and returns the full '\n'-terminated response
  /// payload: one "ok ..."/"error ..." line, plus the rendered metric
  /// lines for op=stats. `context` is extra diagnostic tokens spliced
  /// into an error line after the id echo (the file loop's "line=N");
  /// pass "" over the network. `ok_out` (optional) reports whether the
  /// response is an ok line. `trace` (optional, from StartTrace) collects
  /// this request's spans; the caller finishes it AFTER the response is
  /// written so the transport's flush span makes it in. Thread-safe.
  std::string Execute(const Request& request, const std::string& context,
                      bool* ok_out = nullptr,
                      const std::shared_ptr<obs::TraceContext>& trace = {});

  /// Sampling decision for one request: a live context every Nth call
  /// when a trace store with sampling is configured, null otherwise.
  /// `start_micros` anchors the trace's end-to-end window — transports
  /// pass the same timestamp their request histogram uses.
  std::shared_ptr<obs::TraceContext> StartTrace(const Request& request,
                                                std::int64_t start_micros);

  /// Seals `trace` (null-safe) at MonotonicMicros() and commits it to
  /// the store's ring + JSONL sink. Call after the response is flushed.
  void FinishTrace(const std::shared_ptr<obs::TraceContext>& trace);

  const std::shared_ptr<obs::TraceStore>& trace_store() const {
    return trace_store_;
  }

  /// The error response line (newline-terminated) for a request that
  /// failed before execution — parse errors (`id` empty when the line
  /// was unparseable) and the transport's duplicate-id rejections.
  static std::string FormatError(const Status& status, const std::string& id,
                                 const std::string& context);

  /// The Router's merged snapshot plus every AddStatsRegistry extra (and
  /// the trace store's lifecycle counters) — the op=stats payload.
  std::string RenderStatsText() const;

  /// RenderStatsText plus a '#'-prefixed recent-trace section when
  /// tracing is on — the --stats-port endpoint body ('#' keeps the
  /// exposition format parseable for metric scrapers).
  std::string RenderStatsAndTracesText() const;

 private:
  /// Bounded (path, transform) -> preprocessed dataset cache. Entries
  /// are shared_ptr so a hit stays valid while later requests churn the
  /// cache. FIFO eviction over insertion order.
  class DatasetCache {
   public:
    explicit DatasetCache(std::size_t capacity) : capacity_(capacity) {}
    StatusOr<std::shared_ptr<const data::Dataset>> Get(
        const std::string& path, const std::string& transform);

   private:
    const std::size_t capacity_;
    Mutex mu_;
    std::map<std::string, std::shared_ptr<const data::Dataset>> cache_
        MCIRBM_GUARDED_BY(mu_);
    std::deque<std::string> order_ MCIRBM_GUARDED_BY(mu_);
  };

  StatusOr<std::string> ExecuteTransform(
      const Request& request, const data::Dataset& ds,
      const std::shared_ptr<obs::TraceContext>& trace);
  StatusOr<std::string> ExecuteEvaluate(
      const Request& request, const data::Dataset& ds,
      const std::shared_ptr<obs::TraceContext>& trace);
  std::string ExecuteStats(const Request& request);
  std::string ExecuteTrace(const Request& request, const std::string& context,
                           bool* ok_out);
  StatusOr<std::string> ExecuteReload(const Request& request,
                                      obs::TraceContext* trace);

  Router* const router_;
  DatasetCache datasets_;
  std::vector<const obs::Registry*> extra_registries_;
  const std::shared_ptr<obs::TraceStore> trace_store_;
};

}  // namespace mcirbm::serve

#endif  // MCIRBM_SERVE_EXECUTOR_H_
