// Serving throughput/latency benchmark for the src/serve micro-batcher
// and the replica-sharded serve::Router.
//
// A tiny GRBM encoder is trained once, saved, and served from the model
// store; client threads then hammer a serve::Router with single-row
// Transform requests. The sweep crosses batch size (max_batch_rows 1 = no
// coalescing, i.e. one-row-at-a-time passes, vs 8/32/128) with pool
// width 1/2/4/8 and reports requests/sec plus p50/p95/p99 queue latency
// derived from the serving layer's own obs histograms (the same
// serve_queue_wait_micros series op=stats exposes), merged across model
// keys — so the bench exercises the production metrics path instead of a
// bench-only latency vector. That sweep serves one model key from one
// replica. A second sweep (serve_replicas1/2/4) fixes the batch size at
// 32 and scales the Router's replica count instead, spreading requests
// over 16 model keys so the key-hash actually shards — the number to
// watch on a multi-socket box is rps vs replicas at a fixed pool width.
//
// Output is the same JSON shape as bench/parallel_scaling.cc — a
// top-level {"hardware_threads", "kernels": [{"name", "n", "results":
// [{"threads", "seconds", "speedup", ...}]}]} document — with serving
// extras (rps, p50/p95/p99 queue micros, mean batch rows, and mean
// queue/exec span micros from 1-in-16 sampled traces) on each result, so
// CI uploads it alongside the scaling artifact and trajectory tooling
// can parse both with one reader. The serving win to look for: at
// MCIRBM_THREADS >= 2, the serve_batch8/32/128 kernels should beat
// serve_batch1 (unbatched) on rps.
//
// Environment knobs:
//   MCIRBM_BENCH_SERVE_REQUESTS=<int>  requests per measurement (1000)
//   MCIRBM_BENCH_SERVE_CLIENTS=<int>   client threads (2)
//   MCIRBM_BENCH_SERVE_REPS=<int>      repetitions, best-of (2)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.h"
#include "data/synthetic.h"
#include "obs/registry.h"
#include "parallel/thread_pool.h"
#include "serve/serve.h"
#include "util/timer.h"

namespace {

using namespace mcirbm;  // NOLINT: bench driver

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : fallback;
}

struct Result {
  int threads = 0;
  double seconds = 0;
  double rps = 0;
  double p50_micros = 0;
  double p95_micros = 0;
  double p99_micros = 0;
  double mean_batch_rows = 0;
  // Mean per-span breakdown from sampled traces (obs/trace.h). At the
  // Router layer only queue and exec spans exist — format is the
  // executor's span and stays 0 here (net_throughput reports it).
  double span_queue_micros = 0;
  double span_exec_micros = 0;
  double span_format_micros = 0;
};

// Every 16th request carries a trace — enough samples for stable span
// means, cheap enough (one atomic + two short mutexed appends per
// sampled request) not to perturb the measurement.
obs::TraceConfig BenchTraceConfig() {
  obs::TraceConfig config;
  config.sample_every_n = 16;
  config.capacity = 4096;
  return config;
}

void FillSpanMeans(const obs::TraceStore& store, Result* result) {
  double sums[3] = {0, 0, 0};
  std::uint64_t counts[3] = {0, 0, 0};
  for (const obs::Trace& trace : store.snapshot().traces) {
    for (const obs::TraceSpan& span : trace.spans) {
      const int slot = span.name == "queue"    ? 0
                       : span.name == "exec"   ? 1
                       : span.name == "format" ? 2
                                               : -1;
      if (slot < 0) continue;
      sums[slot] += static_cast<double>(span.duration_micros);
      ++counts[slot];
    }
  }
  result->span_queue_micros = counts[0] ? sums[0] / counts[0] : 0;
  result->span_exec_micros = counts[1] ? sums[1] / counts[1] : 0;
  result->span_format_micros = counts[2] ? sums[2] / counts[2] : 0;
}

linalg::Matrix RowOf(const linalg::Matrix& x, std::size_t r) {
  linalg::Matrix row(1, x.cols());
  std::memcpy(row.data(), x.data() + r * x.cols(),
              x.cols() * sizeof(double));
  return row;
}

// One measurement: `clients` threads submit `requests` single-row
// transforms round-robin over `keys` (the same artifact Put under each
// name, so a replica count > 1 genuinely shards the stream across
// batchers) against a fresh Router; best-of-`reps` wall time, latency
// percentiles from the batchers' queue-wait histograms.
Result Measure(const std::string& model_path, const linalg::Matrix& x,
               int threads, std::size_t replicas, std::size_t max_batch_rows,
               const std::vector<std::string>& keys, std::size_t requests,
               int clients, int reps) {
  Result result;
  result.threads = threads;
  parallel::SetNumThreads(threads);
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    serve::RouterConfig config;
    config.replicas = replicas;
    config.batcher.max_batch_rows = max_batch_rows;
    config.batcher.max_queue_micros = 200;
    // The shared store must hold every pre-warmed key, or the LRU would
    // evict the early ones and the submit path would miss to disk.
    config.store_capacity = keys.size();
    serve::Router router(config);
    for (const std::string& key : keys) {  // pre-warm the shared store
      auto model = api::Model::Load(model_path);
      if (!model.ok()) std::abort();
      router.store().Put(key, std::move(model).value());
    }

    obs::TraceStore trace_store(BenchTraceConfig());
    WallTimer timer;
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
        std::vector<std::shared_ptr<obs::TraceContext>> traces;
        futures.reserve(requests / clients + 1);
        traces.reserve(requests / clients + 1);
        for (std::size_t r = c; r < requests;
             r += static_cast<std::size_t>(clients)) {
          auto trace =
              trace_store.MaybeStartTrace("transform", "", MonotonicMicros());
          futures.push_back(router.Submit(keys[r % keys.size()],
                                          RowOf(x, r % x.rows()), trace));
          traces.push_back(std::move(trace));
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
          if (!futures[i].get().ok()) std::abort();
          trace_store.Finish(traces[i], MonotonicMicros());
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double seconds = timer.Seconds();
    if (seconds < best) {
      best = seconds;
      result.seconds = seconds;
      result.rps = static_cast<double>(requests) / seconds;
      // Every future has resolved, so every accepted row went through a
      // batch and rows / batches is the exact mean batch size.
      const obs::MetricsSnapshot metrics = router.metrics_snapshot();
      const obs::Histogram::Snapshot waits =
          metrics.HistogramTotal("serve_queue_wait_micros");
      result.p50_micros = waits.Quantile(0.50);
      result.p95_micros = waits.Quantile(0.95);
      result.p99_micros = waits.Quantile(0.99);
      result.mean_batch_rows =
          static_cast<double>(metrics.CounterTotal("serve_rows_total")) /
          static_cast<double>(std::max<std::uint64_t>(
              1, metrics.CounterTotal("serve_batches_total")));
      FillSpanMeans(trace_store, &result);
    }
    router.Shutdown();
  }
  return result;
}

void EmitKernel(const std::string& name, std::size_t n,
                const std::vector<Result>& results, bool last) {
  std::cout << "    {\"name\": \"" << name << "\", \"n\": " << n
            << ", \"results\": [";
  const double serial = results.front().seconds;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::cout << (i ? ", " : "") << "{\"threads\": " << r.threads
              << ", \"seconds\": " << r.seconds
              << ", \"speedup\": " << serial / r.seconds
              << ", \"rps\": " << r.rps
              << ", \"p50_micros\": " << r.p50_micros
              << ", \"p95_micros\": " << r.p95_micros
              << ", \"p99_micros\": " << r.p99_micros
              << ", \"mean_batch_rows\": " << r.mean_batch_rows
              << ", \"span_queue_micros\": " << r.span_queue_micros
              << ", \"span_exec_micros\": " << r.span_exec_micros
              << ", \"span_format_micros\": " << r.span_format_micros << "}";
  }
  std::cout << "]}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main() {
  parallel::SetDeterministic(true);
  const std::size_t requests = EnvInt("MCIRBM_BENCH_SERVE_REQUESTS", 1000);
  const int clients = std::max(1, EnvInt("MCIRBM_BENCH_SERVE_CLIENTS", 2));
  const int reps = std::max(1, EnvInt("MCIRBM_BENCH_SERVE_REPS", 2));
  const std::vector<int> widths = {1, 2, 4, 8};
  const std::vector<std::size_t> batch_sizes = {1, 8, 32, 128};

  // Encoder sized so one batched pass carries real GEMM work (a 1-row
  // pass is ~12k multiply-adds — pure overhead; a 32-row batch is ~400k,
  // enough for the pool to bite at >= 2 threads).
  data::GaussianMixtureSpec spec;
  spec.name = "serve";
  spec.num_classes = 4;
  spec.num_instances = 256;
  spec.num_features = 64;
  const data::Dataset ds = data::GenerateGaussianMixture(spec, 7);

  core::PipelineConfig config;
  config.model = core::ModelKind::kGrbm;
  config.rbm.num_hidden = 192;
  config.rbm.epochs = 2;
  config.rbm.batch_size = 64;
  auto trained = api::Model::Train(ds.x, config, 7);
  if (!trained.ok()) {
    std::cerr << "training failed: " << trained.status().ToString() << "\n";
    return 1;
  }
  // Persist once; every rep loads it and Puts it into its Router's store
  // under each served key, outside the timed window.
  const std::string model_path = "mcirbm_serve_bench_model.txt";
  if (!trained.value().Save(model_path).ok()) {
    std::cerr << "cannot write " << model_path << "\n";
    return 1;
  }

  std::cout << "{\n  \"hardware_threads\": "
            << std::thread::hardware_concurrency() << ",\n  \"kernels\": [\n";
  for (std::size_t b = 0; b < batch_sizes.size(); ++b) {
    std::vector<Result> results;
    for (int threads : widths) {
      results.push_back(Measure(model_path, ds.x, threads, /*replicas=*/1,
                                batch_sizes[b], {model_path}, requests,
                                clients, reps));
    }
    EmitKernel("serve_batch" + std::to_string(batch_sizes[b]), requests,
               results, /*last=*/false);
  }
  // The replica sweep spreads requests over 16 model keys so the
  // key-hash has something to shard.
  std::vector<std::string> router_keys;
  for (int k = 0; k < 16; ++k) {
    router_keys.push_back("replica_key_" + std::to_string(k));
  }
  const std::vector<std::size_t> replica_counts = {1, 2, 4};
  for (std::size_t r = 0; r < replica_counts.size(); ++r) {
    std::vector<Result> results;
    for (int threads : widths) {
      results.push_back(Measure(model_path, ds.x, threads, replica_counts[r],
                                /*max_batch_rows=*/32, router_keys, requests,
                                clients, reps));
    }
    EmitKernel("serve_replicas" + std::to_string(replica_counts[r]),
               requests, results, r + 1 == replica_counts.size());
  }
  std::cout << "  ]\n}\n";
  parallel::SetNumThreads(0);
  std::remove(model_path.c_str());
  return 0;
}
