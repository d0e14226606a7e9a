// TCP transport throughput/latency benchmark — the load generator for
// net::LineServer.
//
// Each measurement opens N connections and drives M pipelined id-tagged
// requests through every one with a fixed in-flight window (the
// pipeline depth), reading responses as they complete. The sweep
// crosses pipeline depth 1/8/32 (depth 1 = strict request/response
// ping-pong, the no-pipelining baseline) with connection count 1/2/4/8
// and reports requests/sec plus p50/p95/p99 request latency taken from
// the server's own net_request_micros histogram — parsed out of an
// op=stats response over the wire, so the bench measures the production
// metrics path, not a bench-only latency vector. Mean queue/exec/format
// span micros ride along the same way, parsed from an op=trace probe
// against the in-process server's 1-in-16 sampled traces. A fourth kernel
// (net_transform8) sends real chunked transform requests against a
// trained encoder instead of stats probes, putting actual inference
// behind every response.
//
// Two modes:
//   - default: an in-process LineServer over a serve::Router on an
//     ephemeral loopback port, fresh per repetition (clean histograms);
//   - MCIRBM_BENCH_NET_CONNECT=host:port — hammer an external server
//     (e.g. `mcirbm_cli serve --listen`) instead. The transform kernel
//     is skipped unless MCIRBM_BENCH_NET_REQUEST supplies a request
//     line whose model/data paths exist server-side, and quantiles are
//     cumulative over the server's lifetime.
//
// Output is the same JSON shape as bench/parallel_scaling.cc, with the
// connection count in the "threads" slot of each result.
//
// Environment knobs:
//   MCIRBM_BENCH_NET_REQUESTS=<int>   requests per measurement (1000)
//   MCIRBM_BENCH_NET_REPS=<int>       repetitions, best-of (2)
//   MCIRBM_BENCH_NET_CONNECT=<h:p>    external server, skip in-process
//   MCIRBM_BENCH_NET_REQUEST=<line>   custom request line (external)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "net/net.h"
#include "obs/trace.h"
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
  int connections = 0;
  double seconds = 0;
  double rps = 0;
  double p50_micros = 0;
  double p95_micros = 0;
  double p99_micros = 0;
  // Mean per-span breakdown parsed from an op=trace probe after the
  // timed pass — where a request's wall time actually went. Zero when
  // the target server has tracing off (external mode without
  // --trace-sample).
  double span_queue_micros = 0;
  double span_exec_micros = 0;
  double span_format_micros = 0;
};

// Reads one full response: the ok/error line plus the payload lines a
// multi-line ok response announces (op=stats metrics=N, op=trace
// lines=N). Aborts on transport failure — a bench with a dead server
// has nothing to report.
std::string ReadResponse(net::Client* client, std::string* body = nullptr) {
  std::string first;
  if (!client->ReadLine(&first).ok()) std::abort();
  if (body != nullptr) body->clear();
  std::size_t pos = first.find(" metrics=");
  int count = 0;
  if (pos != std::string::npos) {
    count = std::atoi(first.c_str() + pos + 9);
  } else if ((pos = first.find(" lines=")) != std::string::npos) {
    count = std::atoi(first.c_str() + pos + 7);
  } else {
    return first;
  }
  std::string line;
  for (int i = 0; i < count; ++i) {
    if (!client->ReadLine(&line).ok()) std::abort();
    if (body != nullptr) (*body) += line + "\n";
  }
  return first;
}

double ParseQuantile(const std::string& body, const std::string& quantile) {
  const std::string needle =
      "net_request_micros{quantile=\"" + quantile + "\"} ";
  const std::size_t pos = body.find(needle);
  if (pos == std::string::npos) return 0;
  return std::atof(body.c_str() + pos + needle.size());
}

// One timed pass: `connections` client threads, each pipelining its
// share of `requests` with at most `depth` in flight, over a server at
// host:port. Returns wall seconds.
double DrivePass(const std::string& host, int port,
                 const std::string& request_line, std::size_t requests,
                 int connections, int depth) {
  WallTimer timer;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      auto connected = net::Client::Connect(host, port);
      if (!connected.ok()) std::abort();
      net::Client client = std::move(connected).value();
      const std::size_t share =
          requests / static_cast<std::size_t>(connections) +
          (static_cast<std::size_t>(c) <
                   requests % static_cast<std::size_t>(connections)
               ? 1
               : 0);
      std::size_t inflight = 0;
      for (std::size_t i = 0; i < share; ++i) {
        const std::string id =
            " id=c" + std::to_string(c) + "-" + std::to_string(i);
        if (!client.SendLine(request_line + id).ok()) std::abort();
        if (++inflight >= static_cast<std::size_t>(depth)) {
          ReadResponse(&client);
          --inflight;
        }
      }
      while (inflight-- > 0) ReadResponse(&client);
    });
  }
  for (std::thread& client : clients) client.join();
  return timer.Seconds();
}

// The production latency surface: one op=stats round trip, quantiles
// parsed from the net_request_micros lines.
void FillQuantiles(const std::string& host, int port, Result* result) {
  auto connected = net::Client::Connect(host, port);
  if (!connected.ok()) std::abort();
  net::Client client = std::move(connected).value();
  if (!client.SendLine("op=stats").ok()) std::abort();
  std::string body;
  ReadResponse(&client, &body);
  result->p50_micros = ParseQuantile(body, "0.5");
  result->p95_micros = ParseQuantile(body, "0.95");
  result->p99_micros = ParseQuantile(body, "0.99");
}

// Where the wall time went: one op=trace round trip, mean span
// durations by name parsed from the trace payload. An error response
// (external server with tracing off) leaves the means at zero.
void FillSpanMeans(const std::string& host, int port, Result* result) {
  auto connected = net::Client::Connect(host, port);
  if (!connected.ok()) std::abort();
  net::Client client = std::move(connected).value();
  if (!client.SendLine("op=trace last=256").ok()) std::abort();
  std::string body;
  const std::string first = ReadResponse(&client, &body);
  if (first.rfind("ok ", 0) != 0) return;
  const char* const names[3] = {"queue", "exec", "format"};
  double sums[3] = {0, 0, 0};
  std::size_t counts[3] = {0, 0, 0};
  std::size_t line_start = 0;
  while (line_start < body.size()) {
    std::size_t line_end = body.find('\n', line_start);
    if (line_end == std::string::npos) line_end = body.size();
    const std::string line = body.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    const std::size_t span_pos = line.find(" span=");
    if (span_pos == std::string::npos) continue;
    const std::size_t duration_pos = line.find(" duration_micros=");
    if (duration_pos == std::string::npos) continue;
    const double duration = std::atof(line.c_str() + duration_pos + 17);
    for (int s = 0; s < 3; ++s) {
      if (line.compare(span_pos + 6, std::string(names[s]).size() + 1,
                       std::string(names[s]) + " ") == 0) {
        sums[s] += duration;
        ++counts[s];
      }
    }
  }
  if (counts[0] > 0) result->span_queue_micros = sums[0] / counts[0];
  if (counts[1] > 0) result->span_exec_micros = sums[1] / counts[1];
  if (counts[2] > 0) result->span_format_micros = sums[2] / counts[2];
}

// In-process server bundle, fresh per repetition so every measurement
// starts with clean histograms.
struct LocalServer {
  std::unique_ptr<serve::Router> router;
  std::unique_ptr<serve::RequestExecutor> executor;
  std::unique_ptr<net::LineServer> server;

  static LocalServer Start() {
    LocalServer local;
    serve::RouterConfig config;
    config.replicas = 2;
    local.router = std::make_unique<serve::Router>(config);
    serve::ExecutorConfig executor_config;
    obs::TraceConfig trace_config;
    trace_config.sample_every_n = 16;
    trace_config.capacity = 1024;
    executor_config.trace_store =
        std::make_shared<obs::TraceStore>(trace_config);
    local.executor = std::make_unique<serve::RequestExecutor>(
        local.router.get(), executor_config);
    net::LineServerConfig net_config;
    local.server = std::make_unique<net::LineServer>(net_config,
                                                     local.executor.get());
    local.executor->AddStatsRegistry(&local.server->registry());
    if (!local.server->Start().ok()) std::abort();
    return local;
  }

  void Stop() {
    server->Drain();
    router->Shutdown();
  }
};

Result Measure(const std::string& connect_host, int connect_port,
               const std::string& request_line, std::size_t requests,
               int connections, int depth, int reps) {
  Result result;
  result.connections = connections;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    LocalServer local;
    std::string host = connect_host;
    int port = connect_port;
    if (port == 0) {  // in-process mode
      local = LocalServer::Start();
      host = "127.0.0.1";
      port = local.server->port();
    }
    const double seconds =
        DrivePass(host, port, request_line, requests, connections, depth);
    if (seconds < best) {
      best = seconds;
      result.seconds = seconds;
      result.rps = static_cast<double>(requests) / seconds;
      FillQuantiles(host, port, &result);
      FillSpanMeans(host, port, &result);
    }
    if (connect_port == 0) local.Stop();
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
    std::cout << (i ? ", " : "") << "{\"threads\": " << r.connections
              << ", \"seconds\": " << r.seconds
              << ", \"speedup\": " << serial / r.seconds
              << ", \"rps\": " << r.rps
              << ", \"p50_micros\": " << r.p50_micros
              << ", \"p95_micros\": " << r.p95_micros
              << ", \"p99_micros\": " << r.p99_micros
              << ", \"span_queue_micros\": " << r.span_queue_micros
              << ", \"span_exec_micros\": " << r.span_exec_micros
              << ", \"span_format_micros\": " << r.span_format_micros << "}";
  }
  std::cout << "]}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main() {
  parallel::SetDeterministic(true);
  const std::size_t requests =
      static_cast<std::size_t>(EnvInt("MCIRBM_BENCH_NET_REQUESTS", 1000));
  const int reps = std::max(1, EnvInt("MCIRBM_BENCH_NET_REPS", 2));
  const std::vector<int> connection_counts = {1, 2, 4, 8};
  const std::vector<int> depths = {1, 8, 32};

  std::string connect_host;
  int connect_port = 0;
  if (const char* connect = std::getenv("MCIRBM_BENCH_NET_CONNECT")) {
    const std::string spec = connect;
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      std::cerr << "MCIRBM_BENCH_NET_CONNECT must be host:port\n";
      return 1;
    }
    connect_host = spec.substr(0, colon);
    connect_port = std::atoi(spec.c_str() + colon + 1);
    if (connect_port <= 0) {
      std::cerr << "bad port in MCIRBM_BENCH_NET_CONNECT\n";
      return 1;
    }
  }

  // The transform kernel's artifacts (in-process mode only): a small
  // encoder and its dataset on disk, exactly what the serve protocol
  // references by path.
  std::string data_path, model_path, transform_request;
  if (connect_port == 0) {
    data::GaussianMixtureSpec spec;
    spec.name = "net";
    spec.num_classes = 2;
    spec.num_instances = 64;
    spec.num_features = 16;
    const data::Dataset ds = data::GenerateGaussianMixture(spec, 7);
    core::PipelineConfig config;
    config.model = core::ModelKind::kGrbm;
    config.rbm.num_hidden = 32;
    config.rbm.epochs = 1;
    config.rbm.batch_size = 32;
    auto trained = api::Model::Train(ds.x, config, 7);
    if (!trained.ok()) {
      std::cerr << "training failed: " << trained.status().ToString()
                << "\n";
      return 1;
    }
    data_path = "mcirbm_net_bench_data.csv";
    model_path = "mcirbm_net_bench_model.txt";
    if (!data::SaveDatasetCsv(ds, data_path).ok() ||
        !trained.value().Save(model_path).ok()) {
      std::cerr << "cannot write bench artifacts\n";
      return 1;
    }
    transform_request = "op=transform model=" + model_path +
                        " data=" + data_path + " chunk=64";
  } else if (const char* line = std::getenv("MCIRBM_BENCH_NET_REQUEST")) {
    transform_request = line;
  }

  std::cout << "{\n  \"hardware_threads\": "
            << std::thread::hardware_concurrency()
            << ",\n  \"kernels\": [\n";
  const bool with_transform = !transform_request.empty();
  for (std::size_t d = 0; d < depths.size(); ++d) {
    std::vector<Result> results;
    for (int connections : connection_counts) {
      results.push_back(Measure(connect_host, connect_port, "op=stats",
                                requests, connections, depths[d], reps));
    }
    EmitKernel("net_pipeline" + std::to_string(depths[d]), requests,
               results, /*last=*/!with_transform && d + 1 == depths.size());
  }
  if (with_transform) {
    // Real inference behind every response, same sweep and request count
    // as the stats kernels: with ~100 transforms per point the trend over
    // connection counts drowns in run-to-run noise.
    std::vector<Result> results;
    for (int connections : connection_counts) {
      results.push_back(Measure(connect_host, connect_port,
                                transform_request, requests, connections, 8,
                                reps));
    }
    EmitKernel("net_transform8", requests, results, /*last=*/true);
  }
  std::cout << "  ]\n}\n";
  if (!data_path.empty()) {
    std::remove(data_path.c_str());
    std::remove(model_path.c_str());
  }
  return 0;
}
