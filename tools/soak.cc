// mcirbm_soak — mixed-traffic soak driver for the serve stack.
//
// Runs a configurable blend of op=transform / op=evaluate / op=stats /
// op=trace / op=reload traffic against either an in-process
// Router+RequestExecutor (default; the TSan-friendly mode) or a live
// `mcirbm_cli serve --listen` endpoint over TCP (--connect host:port),
// for --duration-seconds, and checks serving invariants the unit tests
// cannot: they only hold across sustained, interleaved load.
//
// The run alternates traffic phases with quiescent checkpoints (all
// worker round trips completed), where it asserts:
//
//   - every *_total counter and histogram _count in op=stats is
//     monotone non-decreasing across polls;
//   - the serve_pending_rows / serve_queue_depth gauges are zero at
//     every quiescent point (no request leaked into a batch that never
//     flushed);
//   - every request issued got exactly one response (a round trip that
//     never returns, returns twice, or dies mid-read is a violation —
//     over TCP this is the futures-resolved-exactly-once check from the
//     client's side of the wire);
//   - byte parity: a served transform's sum= field matches a direct
//     api::Model::Transform of the same CSV round trip, and its out=
//     file is byte-identical across checkpoints (batched execution is
//     bit-stable under load);
//   - span accounting (when the target has tracing on): for every trace
//     in op=trace, spans are ordered by start time and their durations
//     sum to at most the end-to-end duration; op=transform traces cover
//     parse -> queue -> exec -> format;
//   - with --expect-rejections (default on in-process when
//     --max-pending bounds the queue), the burst phases must trip
//     admission control at least once over the run (serve_rejected_total
//     ends up > 0) — proving the backpressure path actually exercised.
//
// Violations are collected, printed at exit, and fail the process with
// status 1 — the CI soak-smoke contract.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "net/client.h"
#include "serve/serve.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace mcirbm {
namespace {

struct SoakOptions {
  int duration_seconds = 10;
  int threads = 4;
  int seed = 42;
  // In-process service shape (ignored with --connect).
  int replicas = 2;
  int max_pending = 4;
  int trace_sample = 4;
  std::string trace_jsonl;
  // TCP mode: drive a live `serve --listen` endpoint instead.
  std::string connect_host;
  int connect_port = 0;
  // -1 = auto: on in-process when max_pending bounds the queue, off
  // over TCP (the server's bounds are not ours to know).
  int expect_rejections = -1;
};

int Usage() {
  std::cerr
      << "usage: mcirbm_soak [--duration-seconds N] [--threads N]\n"
         "                   [--replicas N] [--max-pending ROWS]\n"
         "                   [--trace-sample N] [--trace-jsonl <path>]\n"
         "                   [--connect HOST:PORT] [--expect-rejections 0|1]\n"
         "                   [--seed N]\n";
  return 2;
}

bool ParseFlags(int argc, char** argv, SoakOptions* options) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    arg.erase(0, 2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      if (i + 1 >= argc) return false;
      flags[arg] = argv[++i];
    }
  }
  auto take_int = [&flags](const std::string& name, int* out) {
    auto it = flags.find(name);
    if (it == flags.end()) return true;
    char* end = nullptr;
    const long value = std::strtol(it->second.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return false;
    *out = static_cast<int>(value);
    flags.erase(it);
    return true;
  };
  auto take_string = [&flags](const std::string& name, std::string* out) {
    auto it = flags.find(name);
    if (it == flags.end()) return;
    *out = it->second;
    flags.erase(it);
  };
  std::string connect;
  if (!take_int("duration-seconds", &options->duration_seconds) ||
      !take_int("threads", &options->threads) ||
      !take_int("seed", &options->seed) ||
      !take_int("replicas", &options->replicas) ||
      !take_int("max-pending", &options->max_pending) ||
      !take_int("trace-sample", &options->trace_sample) ||
      !take_int("expect-rejections", &options->expect_rejections)) {
    return false;
  }
  take_string("trace-jsonl", &options->trace_jsonl);
  take_string("connect", &connect);
  if (!connect.empty()) {
    const std::size_t colon = connect.rfind(':');
    if (colon == std::string::npos) return false;
    options->connect_host = connect.substr(0, colon);
    char* end = nullptr;
    options->connect_port =
        static_cast<int>(std::strtol(connect.c_str() + colon + 1, &end, 10));
    if (end == nullptr || *end != '\0' || options->connect_port <= 0) {
      return false;
    }
  }
  if (!flags.empty()) {
    std::cerr << "unknown flag --" << flags.begin()->first << "\n";
    return false;
  }
  return options->duration_seconds >= 1 && options->threads >= 1 &&
         options->replicas >= 1 && options->max_pending >= 0 &&
         options->trace_sample >= 0;
}

// Pulls `key=value`'s value out of a response line ("" when absent).
std::string Token(const std::string& line, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = line.find(" " + needle);
  if (pos == std::string::npos) {
    if (line.rfind(needle, 0) != 0) return "";
    pos = 0;
  } else {
    pos += 1;
  }
  const std::size_t begin = pos + needle.size();
  const std::size_t end = line.find_first_of(" \n", begin);
  return line.substr(begin, end == std::string::npos ? end : end - begin);
}

long long TokenInt(const std::string& line, const std::string& key) {
  const std::string value = Token(line, key);
  if (value.empty()) return 0;
  return std::strtoll(value.c_str(), nullptr, 10);
}

struct Response {
  bool ok = false;
  std::string payload;  // full text: first line + any announced body
};

// One serve session: strictly serialized request -> full response round
// trips. Each worker thread owns its own transport instance.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual StatusOr<Response> RoundTrip(const std::string& line) = 0;
};

// Drives a RequestExecutor directly — the CI TSan leg, where the whole
// serve stack (batcher flushers, store, executor, soak workers) runs in
// one instrumented process.
class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(serve::RequestExecutor* executor)
      : executor_(executor) {}

  StatusOr<Response> RoundTrip(const std::string& line) override {
    auto parsed = serve::ParseRequestLine(line);
    if (!parsed.ok()) return parsed.status();
    Response response;
    // Mirror the CLI file loop: sample, execute, finish after delivery.
    auto trace = executor_->StartTrace(parsed.value(), MonotonicMicros());
    response.payload =
        executor_->Execute(parsed.value(), "", &response.ok, trace);
    executor_->FinishTrace(trace);
    return response;
  }

 private:
  serve::RequestExecutor* const executor_;
};

// Drives a live --listen endpoint over one TCP connection.
class TcpTransport : public Transport {
 public:
  static StatusOr<std::unique_ptr<Transport>> Connect(
      const std::string& host, int port) {
    auto client = net::Client::Connect(host, port);
    if (!client.ok()) return client.status();
    return std::unique_ptr<Transport>(
        new TcpTransport(std::move(client).value()));
  }

  StatusOr<Response> RoundTrip(const std::string& line) override {
    const Status sent = client_.SendLine(line);
    if (!sent.ok()) return sent;
    std::string first;
    const Status read = client_.ReadLine(&first);
    if (!read.ok()) return read;
    Response response;
    response.ok = first.rfind("ok", 0) == 0;
    response.payload = first + "\n";
    // Multi-line responses announce their body size on the first line
    // (op=stats metrics=N, op=trace lines=N).
    long long body = TokenInt(first, "metrics");
    if (body == 0) body = TokenInt(first, "lines");
    std::string extra;
    for (long long i = 0; i < body; ++i) {
      const Status more = client_.ReadLine(&extra);
      if (!more.ok()) return more;
      response.payload += extra + "\n";
    }
    return response;
  }

 private:
  explicit TcpTransport(net::Client client) : client_(std::move(client)) {}
  net::Client client_;
};

// Collects invariant violations from every thread; the process verdict.
class InvariantChecker {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    violations_.push_back(what);
  }

  int Report() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& violation : violations_) {
      std::cerr << "VIOLATION: " << violation << "\n";
    }
    return violations_.empty() ? 0 : 1;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> violations_;
};

// "name{model=\"k\"} value" / "name value" metric lines -> series map.
std::map<std::string, double> ParseStatsPayload(const std::string& payload) {
  std::map<std::string, double> series;
  std::istringstream lines(payload);
  std::string line;
  std::getline(lines, line);  // the "ok ... op=stats metrics=N" header
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    series[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return series;
}

// The metric-name portion of a series key (labels stripped).
std::string SeriesName(const std::string& series) {
  const std::size_t brace = series.find('{');
  return brace == std::string::npos ? series : series.substr(0, brace);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// One parsed op=trace trace: end-to-end duration + its spans.
struct ParsedTrace {
  std::string op;
  long long duration_micros = -1;
  std::vector<std::pair<long long, long long>> spans;  // (start, duration)
  std::vector<std::string> span_names;
};

std::map<std::string, ParsedTrace> ParseTracePayload(
    const std::string& payload) {
  std::map<std::string, ParsedTrace> traces;
  std::istringstream lines(payload);
  std::string line;
  std::getline(lines, line);  // the "ok ... traces=T lines=N" header
  while (std::getline(lines, line)) {
    const std::string id = Token(line, "trace");
    if (id.empty()) continue;
    ParsedTrace& trace = traces[id];
    const std::string span = Token(line, "span");
    if (span.empty()) {
      trace.op = Token(line, "op");
      trace.duration_micros = TokenInt(line, "duration_micros");
    } else {
      trace.spans.emplace_back(TokenInt(line, "start_micros"),
                               TokenInt(line, "duration_micros"));
      trace.span_names.push_back(span);
    }
  }
  return traces;
}

bool Contains(const std::vector<std::string>& names,
              const std::string& name) {
  for (const std::string& candidate : names) {
    if (candidate == name) return true;
  }
  return false;
}

// The whole run: artifacts, transports, phases, checkpoints.
class Soak {
 public:
  Soak(const SoakOptions& options, InvariantChecker* check)
      : options_(options), check_(check) {}

  ~Soak() {
    if (router_ != nullptr) router_->Shutdown();
    std::remove(data_path_.c_str());
    std::remove(model_path_.c_str());
    std::remove(out_path_.c_str());
  }

  Status Setup() {
    const std::string prefix =
        "/tmp/mcirbm_soak_" + std::to_string(::getpid());
    data_path_ = prefix + "_data.csv";
    model_path_ = prefix + "_model.mcirbm";
    out_path_ = prefix + "_features.csv";

    data::GaussianMixtureSpec spec;
    spec.name = "soak";
    spec.num_classes = 2;
    spec.num_instances = 48;
    spec.num_features = 6;
    spec.separation = 6.0;
    const data::Dataset ds = data::GenerateGaussianMixture(
        spec, static_cast<unsigned>(options_.seed));
    Status saved = data::SaveDatasetCsv(ds, data_path_);
    if (!saved.ok()) return saved;

    core::PipelineConfig config;
    config.model = core::ModelKind::kGrbm;
    config.rbm.num_hidden = 5;
    config.rbm.epochs = 2;
    config.rbm.batch_size = 12;
    auto model = api::Model::Train(ds.x, config, 33);
    if (!model.ok()) return model.status();
    saved = model.value().Save(model_path_);
    if (!saved.ok()) return saved;

    // Byte-parity reference: a direct one-shot transform of the same
    // CSV round trip the served requests read.
    auto loaded = data::LoadDatasetCsv(data_path_, data_path_);
    if (!loaded.ok()) return loaded.status();
    auto features = model.value().Transform(loaded.value().x);
    if (!features.ok()) return features.status();
    reference_sum_ = FormatDouble(features.value().Sum(), 6);

    if (options_.connect_host.empty()) {
      serve::RouterConfig router_config;
      router_config.replicas =
          static_cast<std::size_t>(options_.replicas);
      router_config.batcher.max_pending_rows =
          static_cast<std::size_t>(options_.max_pending);
      router_ = std::make_unique<serve::Router>(router_config);
      serve::ExecutorConfig executor_config;
      if (options_.trace_sample > 0) {
        obs::TraceConfig trace_config;
        trace_config.sample_every_n =
            static_cast<std::uint64_t>(options_.trace_sample);
        executor_config.trace_store =
            std::make_shared<obs::TraceStore>(trace_config);
        if (!options_.trace_jsonl.empty()) {
          auto out = std::make_shared<std::ofstream>(options_.trace_jsonl,
                                                     std::ios::trunc);
          if (!*out) {
            return Status::InvalidArgument("cannot open trace file " +
                                           options_.trace_jsonl);
          }
          executor_config.trace_store->SetJsonlSink(
              [out](const std::string& json_line) {
                *out << json_line << '\n';
                out->flush();
              });
        }
      }
      executor_ = std::make_unique<serve::RequestExecutor>(
          router_.get(), executor_config);
    }

    probe_ = NewTransport();
    if (probe_ == nullptr) {
      return Status::Unavailable("cannot reach the target service");
    }
    // One probe decides whether span checks apply: a target without
    // tracing answers op=trace with an error, which is fine — the soak
    // then skips trace assertions instead of failing them.
    auto traced = probe_->RoundTrip("op=trace last=1");
    if (!traced.ok()) return traced.status();
    tracing_on_ = traced.value().ok;
    return Status::Ok();
  }

  // Runs the phase schedule until the deadline, then the final checks.
  void Run() {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(options_.duration_seconds);
    int round = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      // Every third round is an admission-tripping burst: every worker
      // hammers single-row chunks, overrunning a bounded queue.
      const bool burst = round % 3 == 2;
      TrafficPhase(/*millis=*/800, burst);
      Checkpoint(round);
      ++round;
    }
    std::cout << "# soak rounds=" << round << " issued=" << issued_.load()
              << " answered=" << answered_.load()
              << " ok=" << ok_responses_.load()
              << " rejections_seen=" << (last_rejected_ > 0 ? "yes" : "no")
              << std::endl;
    if (issued_.load() != answered_.load()) {
      check_->Fail("requests issued (" + std::to_string(issued_.load()) +
                   ") != responses received (" +
                   std::to_string(answered_.load()) +
                   "): some round trip never completed");
    }
    const bool expect_rejections =
        options_.expect_rejections == 1 ||
        (options_.expect_rejections == -1 &&
         options_.connect_host.empty() && options_.max_pending > 0);
    if (expect_rejections && last_rejected_ == 0) {
      check_->Fail(
          "burst phases never tripped admission control "
          "(serve_rejected_total stayed 0)");
    }
  }

 private:
  std::unique_ptr<Transport> NewTransport() {
    if (options_.connect_host.empty()) {
      return std::make_unique<InProcessTransport>(executor_.get());
    }
    auto connected =
        TcpTransport::Connect(options_.connect_host, options_.connect_port);
    if (!connected.ok()) {
      check_->Fail("connect failed: " + connected.status().ToString());
      return nullptr;
    }
    return std::move(connected).value();
  }

  std::string TransformLine(const std::string& extra) const {
    return "op=transform model=" + model_path_ + " data=" + data_path_ +
           extra;
  }

  // One worker's request mix for a non-burst phase.
  std::string MixedLine(std::mt19937* rng, int worker, int step) const {
    const int roll = static_cast<int>((*rng)() % 100);
    const std::string tag =
        roll % 2 == 0 ? " id=w" + std::to_string(worker) + "-" +
                            std::to_string(step)
                      : "";
    if (roll < 55) {
      const int chunk = 4 << static_cast<int>((*rng)() % 3);
      return TransformLine(" chunk=" + std::to_string(chunk) + tag);
    }
    if (roll < 70) {
      return "op=evaluate model=" + model_path_ + " data=" + data_path_ +
             " k=2 seed=7" + tag;
    }
    if (roll < 82) return "op=stats" + tag;
    if (roll < 92) return "op=trace last=8" + tag;
    return "op=reload model=" + model_path_ + tag;
  }

  void TrafficPhase(int millis, bool burst) {
    const auto phase_deadline = std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(millis);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(options_.threads));
    for (int w = 0; w < options_.threads; ++w) {
      workers.emplace_back([this, w, burst, phase_deadline] {
        std::mt19937 rng(
            static_cast<unsigned>(options_.seed + 7919 * (w + 1)));
        auto transport = NewTransport();
        if (transport == nullptr) return;
        int step = 0;
        while (std::chrono::steady_clock::now() < phase_deadline) {
          const std::string line =
              burst ? TransformLine(" chunk=1") : MixedLine(&rng, w, step);
          ++step;
          issued_.fetch_add(1);
          auto response = transport->RoundTrip(line);
          if (!response.ok()) {
            check_->Fail("round trip died on '" + line +
                         "': " + response.status().ToString());
            return;  // this connection/session is unusable now
          }
          answered_.fetch_add(1);
          if (response.value().ok) {
            ok_responses_.fetch_add(1);
          } else if (!(line.rfind("op=trace", 0) == 0 && !tracing_on_)) {
            // The only tolerated error is a trace probe against a
            // target that has tracing off.
            check_->Fail("unexpected error response to '" + line +
                         "': " + response.value().payload);
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  // All workers joined: the service is quiescent — every submitted
  // future resolved, every batch flushed. Assert it looks that way.
  void Checkpoint(int round) {
    auto stats = probe_->RoundTrip("op=stats");
    if (!stats.ok() || !stats.value().ok) {
      check_->Fail("op=stats probe failed at round " +
                   std::to_string(round));
      return;
    }
    const std::map<std::string, double> series =
        ParseStatsPayload(stats.value().payload);
    double rejected = 0;
    for (const auto& [key, value] : series) {
      const std::string name = SeriesName(key);
      if ((EndsWith(name, "_total") || EndsWith(name, "_count")) &&
          !prev_series_.empty()) {
        const auto prev = prev_series_.find(key);
        if (prev != prev_series_.end() && value < prev->second) {
          check_->Fail("counter " + key + " went backwards: " +
                       std::to_string(prev->second) + " -> " +
                       std::to_string(value));
        }
      }
      if (name == "serve_pending_rows" || name == "serve_queue_depth") {
        if (value != 0) {
          check_->Fail("gauge " + key + " = " + std::to_string(value) +
                       " at quiescent checkpoint (round " +
                       std::to_string(round) + ")");
        }
      }
      if (name == "serve_rejected_total") rejected += value;
    }
    prev_series_ = series;
    last_rejected_ = rejected;
    ParityCheck(round);
    if (tracing_on_) TraceCheck(round);
  }

  void ParityCheck(int round) {
    auto served = probe_->RoundTrip(TransformLine(" out=" + out_path_));
    if (!served.ok() || !served.value().ok) {
      check_->Fail("parity transform failed at round " +
                   std::to_string(round));
      return;
    }
    const std::string sum = Token(served.value().payload, "sum");
    if (sum != reference_sum_) {
      check_->Fail("served transform sum=" + sum +
                   " != direct transform sum=" + reference_sum_);
    }
    std::ifstream out(out_path_, std::ios::binary);
    std::ostringstream bytes;
    bytes << out.rdbuf();
    if (reference_out_.empty()) {
      reference_out_ = bytes.str();
      if (reference_out_.empty()) {
        check_->Fail("parity out= file came back empty");
      }
    } else if (bytes.str() != reference_out_) {
      check_->Fail("served out= file bytes changed between checkpoints "
                   "(round " +
                   std::to_string(round) + ")");
    }
  }

  void TraceCheck(int round) {
    auto traced = probe_->RoundTrip("op=trace last=64");
    if (!traced.ok() || !traced.value().ok) {
      check_->Fail("op=trace probe failed at round " +
                   std::to_string(round));
      return;
    }
    const std::map<std::string, ParsedTrace> traces =
        ParseTracePayload(traced.value().payload);
    if (round > 0 && traces.empty()) {
      check_->Fail("tracing is on but no traces accumulated by round " +
                   std::to_string(round));
      return;
    }
    for (const auto& [id, trace] : traces) {
      long long span_sum = 0;
      long long prev_start = -1;
      for (std::size_t i = 0; i < trace.spans.size(); ++i) {
        span_sum += trace.spans[i].second;
        if (trace.spans[i].first < prev_start) {
          check_->Fail("trace " + id + " spans out of start order");
          break;
        }
        prev_start = trace.spans[i].first;
      }
      if (span_sum > trace.duration_micros) {
        check_->Fail("trace " + id + " span durations sum to " +
                     std::to_string(span_sum) + "us > end-to-end " +
                     std::to_string(trace.duration_micros) + "us");
      }
      if (trace.op == "transform") {
        for (const char* required : {"parse", "queue", "exec", "format"}) {
          if (!Contains(trace.span_names, required)) {
            check_->Fail("transform trace " + id + " is missing a '" +
                         std::string(required) + "' span");
          }
        }
      }
    }
  }

  const SoakOptions options_;
  InvariantChecker* const check_;

  std::string data_path_, model_path_, out_path_;
  std::string reference_sum_;
  std::string reference_out_;

  std::unique_ptr<serve::Router> router_;          // in-process mode
  std::unique_ptr<serve::RequestExecutor> executor_;
  std::unique_ptr<Transport> probe_;  // the checkpoint thread's session
  bool tracing_on_ = false;

  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> ok_responses_{0};
  std::map<std::string, double> prev_series_;
  double last_rejected_ = 0;
};

}  // namespace
}  // namespace mcirbm

int main(int argc, char** argv) {
  mcirbm::SoakOptions options;
  if (!mcirbm::ParseFlags(argc, argv, &options)) return mcirbm::Usage();
  mcirbm::InvariantChecker check;
  {
    mcirbm::Soak soak(options, &check);
    const mcirbm::Status ready = soak.Setup();
    if (!ready.ok()) {
      std::cerr << "soak setup failed: " << ready.ToString() << "\n";
      return 2;
    }
    soak.Run();
  }
  const int verdict = check.Report();
  std::cout << (verdict == 0 ? "# soak PASS" : "# soak FAIL") << std::endl;
  return verdict;
}
