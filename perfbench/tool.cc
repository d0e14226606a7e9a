// perfbench_tool — the benchmark's own program, driven by run.py.
//
//   perfbench_tool prep  --data in.csv --shuffle-seed N --raw-out raw.csv
//                        --transform standardize --out x.csv
//       Permutes the dataset's rows by the seed (raw.csv), then applies the
//       pipeline's preprocessing (x.csv), so request files carry rows in
//       the encoder's input space.
//
//   perfbench_tool load  --port P --model M --files a.csv,b.csv --conns 4
//                        --depth 8 [--bulk x.csv] --out r.json
//       Closed-loop load generator against `mcirbm_cli serve --listen`
//       for kCountersLoadSeconds: one thread per connection (at most
//       nproc), id-tagged pipelined requests, every response checked
//       against the expected `sum=FormatDouble(Model::Transform(rows).Sum(),
//       6)` computed here from the same artifact, then op=stats
//       cross-checks. Writes the attempted and failed operation counts.
//
//   perfbench_tool trace --config run.cfg --features-out f.csv
//                        --model-out m.txt --served-model m.txt --port P
//                        --files ... [--bulk ...] --conns N --depth D
//                        --out t.json
//       The traced run: the `pipeline` subcommand's stages called one by
//       one through the layers' public functions, each timed from here;
//       standalone voter/kernel timings; and a layer descent of the
//       workload's request mix (net client -> RequestExecutor::Execute ->
//       Router::Submit -> Model::Transform). Nothing inside the program is
//       instrumented.
//
// A bulk request is the whole --bulk set at chunk=kBulkChunk.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.h"
#include "clustering/registry.h"
#include "core/pipeline.h"
#include "data/io.h"
#include "data/loaders.h"
#include "data/transforms.h"
#include "linalg/ops.h"
#include "metrics/external.h"
#include "net/client.h"
#include "parallel/thread_pool.h"
#include "rbm/grbm.h"
#include "rbm/rbm.h"
#include "rbm/serialize.h"
#include "serve/executor.h"
#include "serve/request.h"
#include "serve/router.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "voting/vote.h"

namespace {

using namespace mcirbm;  // NOLINT: benchmark tool

constexpr std::size_t kBulkChunk = 64;       // rows per bulk micro-request
constexpr double kLevelSeconds = 1.0;        // each layer-descent level
constexpr double kCountersLoadSeconds = 2.0; // `load`, feeding the counters

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_tool: " << message << "\n";
  std::exit(2);
}

template <typename T>
T Must(StatusOr<T> value, const std::string& what) {
  if (!value.ok()) Die(what + ": " + value.status().ToString());
  return std::move(value).value();
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// --key value flags.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Die("unexpected argument " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 != 0) Die("flags come in --key value pairs");
  }
  // "" when the flag is absent.
  std::string Optional(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? "" : it->second;
  }
  std::string Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  int Int(const std::string& key) const { return std::stoi(Require(key)); }

 private:
  std::map<std::string, std::string> values_;
};

// Flat JSON object writer: numbers, strings and bools only.
class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    std::ostringstream v;
    v.precision(17);
    v << (std::isfinite(value) ? value : 0.0);
    Add(key, v.str());
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    Add(key, quoted + "\"");
  }
  void Bool(const std::string& key, bool value) {
    Add(key, value ? "true" : "false");
  }
  void WriteTo(const std::string& path) const {
    std::ofstream out(path);
    out << "{" << body_ << "}\n";
    if (!out) Die("cannot write " + path);
  }

 private:
  void Add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

double Seconds(std::int64_t micros) { return static_cast<double>(micros) * 1e-6; }

// Nearest-rank quantile of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Median seconds of `fn` over repeats until `budget_s` is spent (>= 3).
double MedianSeconds(const std::function<void()>& fn, double budget_s) {
  std::vector<double> times;
  const std::int64_t start = MonotonicMicros();
  while (times.size() < 3 ||
         Seconds(MonotonicMicros() - start) < budget_s) {
    const std::int64_t t0 = MonotonicMicros();
    fn();
    times.push_back(Seconds(MonotonicMicros() - t0));
    if (times.size() >= 1000) break;
  }
  return Quantile(times, 0.5);
}

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& part : Split(text, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

std::map<std::string, std::string> ParseResponse(const std::string& line) {
  std::map<std::string, std::string> fields;
  std::istringstream tokens(line);
  std::string token;
  tokens >> token;
  fields["status"] = token;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return fields;
}

std::string TransformLine(const std::string& id, const std::string& model,
                          const std::string& data, std::size_t chunk) {
  return "op=transform id=" + id + " model=" + model + " data=" + data +
         " chunk=" + std::to_string(chunk);
}

// ---------------------------------------------------------------------------
// prep
// ---------------------------------------------------------------------------

void ApplyTransform(const std::string& transform, linalg::Matrix* x) {
  if (transform == "standardize") {
    data::StandardizeInPlace(x);
  } else if (transform == "minmax") {
    data::MinMaxScaleInPlace(x);
  } else if (transform == "binarize") {
    data::MinMaxScaleInPlace(x);
    data::BinarizeAtColumnMeanInPlace(x);
  } else if (transform != "none") {
    Die("unknown transform " + transform);
  }
}

// Fisher-Yates row permutation driven by mt19937_64, whose output
// sequence the standard fixes, so a seed names the same file everywhere.
void ShuffleRows(std::uint64_t seed, data::Dataset* ds) {
  std::mt19937_64 gen(seed);
  const std::size_t cols = ds->x.cols();
  for (std::size_t i = ds->x.rows(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(gen() % i);
    std::swap_ranges(ds->x.data() + (i - 1) * cols, ds->x.data() + i * cols,
                     ds->x.data() + j * cols);
    std::swap(ds->labels[i - 1], ds->labels[j]);
  }
}

int RunPrep(const Flags& flags) {
  data::Dataset ds = Must(data::LoadDataset(flags.Require("data")), "load");
  ShuffleRows(std::stoull(flags.Require("shuffle-seed")), &ds);
  Must(data::SaveDatasetCsv(ds, flags.Require("raw-out")), "save raw");
  ApplyTransform(flags.Require("transform"), &ds.x);
  Must(data::SaveDatasetCsv(ds, flags.Require("out")), "save");
  return 0;
}

// ---------------------------------------------------------------------------
// Request files and their expected responses
// ---------------------------------------------------------------------------

struct RequestFile {
  std::string path;
  linalg::Matrix rows;
  std::string expected_sum;  // FormatDouble(Model::Transform(rows).Sum(), 6)
};

RequestFile LoadRequestFile(const api::Model& model, const std::string& path) {
  RequestFile file;
  file.path = path;
  file.rows = Must(data::LoadDataset(path), "load " + path).x;
  const linalg::Matrix hidden =
      Must(model.Transform(file.rows), "transform " + path);
  file.expected_sum = FormatDouble(hidden.Sum(), 6);
  return file;
}

std::size_t Chunks(std::size_t rows, std::size_t chunk) {
  return (rows + chunk - 1) / chunk;
}

// Server-side counters summed over model keys, from one op=stats reply.
struct ServerStats {
  double requests_total = 0;
  double pending_rows = 0;
  double queue_depth = 0;
};

ServerStats QueryStats(int port) {
  net::Client client = Must(net::Client::Connect("127.0.0.1", port), "connect");
  Must(client.SendLine("op=stats id=stats"), "send op=stats");
  std::string line;
  Must(client.ReadLine(&line), "read op=stats");
  const auto head = ParseResponse(line);
  if (head.at("status") != "ok") Die("op=stats failed: " + line);
  const long count = std::stol(head.count("metrics") ? head.at("metrics") : "0");
  ServerStats stats;
  for (long i = 0; i < count; ++i) {
    Must(client.ReadLine(&line), "read op=stats body");
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    const double value = std::stod(line.substr(space + 1));
    if (name == "serve_requests_total") stats.requests_total += value;
    if (name == "serve_pending_rows") stats.pending_rows += value;
    if (name == "serve_queue_depth") stats.queue_depth += value;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// load
// ---------------------------------------------------------------------------

struct ConnResult {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;       // correct responses
  std::uint64_t failed = 0;
  std::uint64_t micro_requests = 0;  // Router submissions the server makes
  std::string first_error;
};

void NoteFailure(ConnResult* result, const std::string& what) {
  ++result->failed;
  if (result->first_error.empty()) result->first_error = what;
}

// One connection keeping `depth` id-tagged requests in flight, sending a
// replacement after each response while `more()` says so, then draining.
// Requests cycle through `files`.
ConnResult RunConnection(int port, const std::string& model,
                         const std::vector<RequestFile>& files,
                         std::size_t chunk, int depth, int conn_index,
                         const std::function<bool()>& more) {
  ConnResult result;
  auto client_or = net::Client::Connect("127.0.0.1", port);
  if (!client_or.ok()) {
    NoteFailure(&result, client_or.status().ToString());
    return result;
  }
  net::Client client = std::move(client_or).value();
  std::map<std::string, std::size_t> pending;  // id -> file
  std::uint64_t seq = 0;
  auto send_next = [&]() -> bool {
    const std::size_t file =
        (static_cast<std::size_t>(conn_index) + seq) % files.size();
    const std::string id =
        "c" + std::to_string(conn_index) + "-" + std::to_string(seq++);
    pending[id] = file;
    ++result.sent;
    result.micro_requests += Chunks(files[file].rows.rows(), chunk);
    if (!client.SendLine(TransformLine(id, model, files[file].path, chunk))
             .ok()) {
      NoteFailure(&result, "send failed");
      return false;
    }
    return true;
  };
  bool healthy = true;
  for (int i = 0; i < depth && healthy; ++i) healthy = send_next();
  while (healthy && !pending.empty()) {
    std::string line;
    if (!client.ReadLine(&line).ok()) {
      NoteFailure(&result, "connection closed");
      break;
    }
    auto fields = ParseResponse(line);
    auto it = pending.find(fields["id"]);
    if (it == pending.end()) {
      NoteFailure(&result, "unmatched response: " + line);
      continue;
    }
    const RequestFile& file = files[it->second];
    if (fields["status"] != "ok" || fields["sum"] != file.expected_sum ||
        fields["rows"] != std::to_string(file.rows.rows())) {
      NoteFailure(&result, "wrong response: " + line);
    } else {
      ++result.completed;
    }
    pending.erase(it);
    if (more()) healthy = send_next();
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    NoteFailure(&result, "unanswered request");
  }
  return result;
}

// The --files request files, and the --bulk set if given, with their
// expected responses under `model`.
struct RequestMix {
  std::vector<RequestFile> files;
  std::vector<RequestFile> bulk;  // empty or one file
};

RequestMix LoadRequestMix(const Flags& flags, const api::Model& model) {
  RequestMix mix;
  for (const std::string& path : SplitList(flags.Require("files"))) {
    mix.files.push_back(LoadRequestFile(model, path));
  }
  const std::string bulk_path = flags.Optional("bulk");
  if (!bulk_path.empty()) mix.bulk.push_back(LoadRequestFile(model, bulk_path));
  if (flags.Int("conns") + static_cast<int>(mix.bulk.size()) >
      static_cast<int>(std::thread::hardware_concurrency())) {
    Die("more load-generator threads than cores");
  }
  return mix;
}

int RunLoad(const Flags& flags) {
  const int port = flags.Int("port");
  const std::string model_path = flags.Require("model");
  const api::Model model = Must(api::Model::Load(model_path), "load model");
  const RequestMix mix = LoadRequestMix(flags, model);
  const std::vector<RequestFile>& files = mix.files;
  const std::vector<RequestFile>& bulk = mix.bulk;
  const int conns = flags.Int("conns");
  const int depth = flags.Int("depth");

  const ServerStats before = QueryStats(port);
  // Warm pass, checked but not timed: every request file once, then the
  // bulk set once (the server's dataset cache, model store and pool).
  const auto no_more = [] { return false; };
  std::vector<ConnResult> warm;
  warm.push_back(RunConnection(port, model_path, files, 1,
                               static_cast<int>(files.size()), 0, no_more));
  if (!bulk.empty()) {
    warm.push_back(
        RunConnection(port, model_path, bulk, kBulkChunk, 1, 0, no_more));
  }
  const std::int64_t deadline =
      MonotonicMicros() + static_cast<std::int64_t>(kCountersLoadSeconds * 1e6);
  const auto more_interactive = [deadline] {
    return MonotonicMicros() < deadline;
  };
  std::vector<std::future<ConnResult>> interactive;
  for (int c = 0; c < conns; ++c) {
    interactive.push_back(std::async(std::launch::async, [&, c] {
      return RunConnection(port, model_path, files, 1, depth, c,
                           more_interactive);
    }));
  }
  std::atomic<bool> interactive_done{false};
  std::future<ConnResult> bulk_future;
  if (!bulk.empty()) {
    bulk_future = std::async(std::launch::async, [&] {
      return RunConnection(port, model_path, bulk, kBulkChunk, 1, conns,
                           [&] { return !interactive_done.load(); });
    });
  }
  std::vector<ConnResult> results;
  for (auto& f : interactive) results.push_back(f.get());
  interactive_done.store(true);

  ConnResult bulk_result;
  if (!bulk.empty()) bulk_result = bulk_future.get();
  const ServerStats after = QueryStats(port);

  std::uint64_t sent = 0, failed = 0, micro = 0;
  std::string first_error;
  std::vector<ConnResult> all = std::move(warm);
  all.push_back(bulk_result);
  all.insert(all.end(), results.begin(), results.end());
  for (const ConnResult& r : all) {
    sent += r.sent;
    failed += r.failed;
    micro += r.micro_requests;
    if (first_error.empty()) first_error = r.first_error;
  }
  // Server-side cross-checks: every micro-request we caused was counted,
  // and nothing is left queued once every response is in.
  std::uint64_t check_failures = 0;
  if (after.requests_total - before.requests_total !=
      static_cast<double>(micro)) {
    ++check_failures;
    if (first_error.empty()) first_error = "serve_requests_total mismatch";
  }
  if (after.pending_rows != 0 || after.queue_depth != 0) {
    ++check_failures;
    if (first_error.empty()) first_error = "server not drained";
  }

  JsonObject out;
  out.Num("attempted", static_cast<double>(sent + 2));
  out.Num("failed", static_cast<double>(failed + check_failures));
  out.Str("first_error", first_error);
  out.WriteTo(flags.Require("out"));
  return 0;
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

// Contiguous stage timeline of the traced pipeline run.
class Timeline {
 public:
  Timeline() : start_(MonotonicMicros()), last_(start_) {}
  // Closes the current stage as `name` (accumulating repeats).
  void Mark(const std::string& name) {
    const std::int64_t now = MonotonicMicros();
    stages_[name] += Seconds(now - last_);
    last_ = now;
  }
  // Leaves the time since the last mark in the traced wall but in no
  // layer.
  void Unattributed() { last_ = MonotonicMicros(); }
  // Drops the time since the last mark from the traced wall (work the
  // traced run does that the program does not).
  void Exclude() {
    const std::int64_t now = MonotonicMicros();
    excluded_ += Seconds(now - last_);
    last_ = now;
  }
  double Stage(const std::string& name) const {
    auto it = stages_.find(name);
    return it == stages_.end() ? 0 : it->second;
  }
  double Wall() const { return Seconds(last_ - start_) - excluded_; }
  double Attributed() const {
    double sum = 0;
    for (const auto& [name, s] : stages_) sum += s;
    return sum;
  }

 private:
  std::int64_t start_;
  std::int64_t last_;
  double excluded_ = 0;
  std::map<std::string, double> stages_;
};

linalg::Matrix FilledMatrix(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = dist(gen);
  return m;
}

double GemmGflops(std::size_t n, std::size_t d, std::size_t h) {
  const linalg::Matrix a = FilledMatrix(n, d, 1);
  const linalg::Matrix b = FilledMatrix(d, h, 2);
  const double s = MedianSeconds([&] { linalg::Gemm(a, b); }, 0.3);
  return 2.0 * static_cast<double>(n * d * h) / s * 1e-9;
}

linalg::Matrix RowSlice(const linalg::Matrix& x, std::size_t begin,
                        std::size_t end) {
  linalg::Matrix slice(end - begin, x.cols());
  std::copy_n(x.data() + begin * x.cols(), slice.size(), slice.data());
  return slice;
}

// Connection `conn`'s share of a request mix at one descent level: runs
// requests while `more()` holds (at least one round) and returns how many
// completed.
using ConnRunner =
    std::function<std::uint64_t(int conn, const std::function<bool()>& more)>;

// A runner calling `one(file)` back to back, cycling through the files
// from `conn`: depth 1, the concurrency the server's handler pool gives
// the in-process layers.
ConnRunner Synchronous(std::size_t num_files,
                       std::function<void(std::size_t)> one) {
  return [num_files, one = std::move(one)](
             int conn, const std::function<bool()>& more) {
    std::uint64_t done = 0;
    do {
      one((static_cast<std::size_t>(conn) + done) % num_files);
      ++done;
    } while (more());
    return done;
  };
}

// One layer of the descent: `conns` interactive runners for kLevelSeconds,
// with `bulk` (if set) busy alongside for its interference only, after a
// warm pass over every request shape (dataset cache, model store, pool).
// Returns connection-microseconds per interactive request: the mean
// latency at depth 1, and a connection's time per request when it keeps
// several in flight.
double DescentLevel(int conns, std::size_t num_files,
                    const ConnRunner& interactive, const ConnRunner& bulk) {
  const auto once = [] { return false; };
  for (std::size_t f = 0; f < num_files; ++f) {
    interactive(static_cast<int>(f), once);
  }
  if (bulk) bulk(conns, once);
  const std::int64_t deadline =
      MonotonicMicros() + static_cast<std::int64_t>(kLevelSeconds * 1e6);
  const auto more = [deadline] { return MonotonicMicros() < deadline; };
  std::atomic<bool> stop{false};
  std::vector<std::future<std::pair<std::int64_t, std::uint64_t>>> workers;
  for (int c = 0; c < conns; ++c) {
    workers.push_back(std::async(std::launch::async, [&, c] {
      const std::int64_t t0 = MonotonicMicros();
      const std::uint64_t done = interactive(c, more);
      return std::make_pair(MonotonicMicros() - t0, done);
    }));
  }
  std::future<void> bulk_worker;
  if (bulk) {
    bulk_worker = std::async(std::launch::async, [&] {
      bulk(conns, [&] { return !stop.load(); });
    });
  }
  double micros = 0, requests = 0;
  for (auto& w : workers) {
    const auto [elapsed, done] = w.get();
    micros += static_cast<double>(elapsed);
    requests += static_cast<double>(done);
  }
  stop.store(true);
  if (bulk) bulk_worker.get();
  return micros / std::max(1.0, requests);
}

int RunTrace(const Flags& flags) {
  // The traced wall starts before the config is read; only the stages
  // below are attributed to layers.
  Timeline timeline;
  api::PipelineSpec spec =
      Must(api::ParsePipelineSpecFile(flags.Require("config")), "config");
  const std::string features_out = flags.Require("features-out");
  const std::string model_out = flags.Require("model-out");
  JsonObject out;
  timeline.Unattributed();

  // --- The pipeline subcommand, stage by stage (api::RunPipeline order).
  data::DataSourceConfig source_config;
  source_config.synth_seed = spec.seed;
  data::Dataset dataset =
      Must(data::LoadDataset(spec.data_spec, source_config), "load data");
  timeline.Mark("data.load");

  const core::PipelineConfig& base = spec.config;
  const bool grbm_family = base.model == core::ModelKind::kGrbm ||
                           base.model == core::ModelKind::kSlsGrbm;
  const bool is_sls = base.model == core::ModelKind::kSlsRbm ||
                      base.model == core::ModelKind::kSlsGrbm;
  std::string transform = spec.transform;
  if (transform == "auto") transform = grbm_family ? "standardize" : "minmax";
  linalg::Matrix x = dataset.x;
  ApplyTransform(transform, &x);
  timeline.Mark("data.preprocess");

  core::PipelineConfig config = base;
  if (config.supervision.num_clusters <= 0) {
    config.supervision.num_clusters = dataset.num_classes;
  }
  core::ApplyParallelConfig(config.parallel);
  rbm::RbmConfig rbm_config = config.rbm;
  if (rbm_config.num_visible == 0) {
    rbm_config.num_visible = static_cast<int>(x.cols());
  }
  rbm_config.seed = rbm_config.seed ^ spec.seed;
  voting::LocalSupervision supervision;
  double supervise_s = 0;
  if (is_sls) {
    supervision = Must(core::TryComputeSelfLearningSupervision(
                           x, config.supervision, spec.seed),
                       "supervise");
    timeline.Mark("core.supervise");
    supervise_s = timeline.Stage("core.supervise");
  }

  std::unique_ptr<rbm::RbmBase> encoder;
  switch (config.model) {
    case core::ModelKind::kRbm:
      encoder = std::make_unique<rbm::Rbm>(rbm_config);
      break;
    case core::ModelKind::kGrbm:
      encoder = std::make_unique<rbm::Grbm>(rbm_config);
      break;
    case core::ModelKind::kSlsRbm:
      encoder = std::make_unique<core::SlsRbm>(rbm_config, config.sls,
                                               supervision);
      break;
    case core::ModelKind::kSlsGrbm:
      encoder = std::make_unique<core::SlsGrbm>(rbm_config, config.sls,
                                                supervision);
      break;
  }
  timeline.Mark("core.build");
  const std::vector<rbm::EpochStats> history = encoder->Train(x);
  timeline.Mark("rbm.train");
  const linalg::Matrix pipeline_hidden = encoder->HiddenFeatures(x);
  timeline.Mark("rbm.hidden");

  {
    std::ofstream artifact(model_out);
    artifact << api::kModelMagic << "\n"
             << "kind: " << api::ModelKindRegistryName(config.model) << "\n";
    Must(rbm::SaveParameters(*encoder, artifact), "save model");
  }
  timeline.Mark("api.save");
  const api::Model model = Must(api::Model::Load(model_out), "reload model");
  timeline.Exclude();
  const linalg::Matrix hidden = Must(model.Transform(x), "transform");
  timeline.Mark("api.transform");
  data::Dataset features = dataset;
  features.x = hidden;
  features.name = dataset.name + ":hidden";
  Must(data::SaveDatasetCsv(features, features_out), "save features");
  timeline.Mark("data.save");

  const int eval_k = spec.eval_k > 0 ? spec.eval_k : dataset.num_classes;
  double hidden_acc = 0;
  if (spec.eval_clusterer != "none") {
    ParamMap params;
    params.Set("k", std::to_string(eval_k));
    auto clusterer = Must(clustering::ClustererRegistry::Global().Create(
                              spec.eval_clusterer, params),
                          "eval clusterer");
    // The program scores the raw input too; so does the traced run.
    const auto raw = clusterer->Cluster(dataset.x, spec.seed);
    const auto hid = clusterer->Cluster(hidden, spec.seed);
    metrics::ComputeAll(dataset.labels, raw.assignment);
    hidden_acc = metrics::ComputeAll(dataset.labels, hid.assignment).accuracy;
  }
  timeline.Mark("eval.score");

  const double train_s = timeline.Stage("rbm.train");
  const double epochs = static_cast<double>(std::max<std::size_t>(1, history.size()));
  const auto n = static_cast<double>(x.rows());
  const auto d = static_cast<double>(x.cols());
  const auto h = static_cast<double>(encoder->weights().cols());
  out.Num("traced_wall_s", timeline.Wall());
  out.Num("hidden_acc", hidden_acc);
  out.Num("data.load_s", timeline.Stage("data.load"));
  out.Num("data.preprocess_s", timeline.Stage("data.preprocess"));
  out.Num("rbm.train_s", train_s);
  out.Num("rbm.epoch_ms", train_s / epochs * 1e3);
  // Computed, not counted: CD-1 per epoch is three n·d·h products
  // (v->h, h->v', v'->h') and two gradient outer products, 2 flops each.
  out.Num("rbm.cd_gflops", 10.0 * n * d * h * epochs / train_s * 1e-9);
  out.Num("api.transform_s", timeline.Stage("api.transform"));
  out.Num("eval.score_s", timeline.Stage("eval.score"));
  out.Num("trace.attributed_frac", timeline.Attributed() / timeline.Wall());

  // --- Standalone voters, each alone with the full pool, in the
  // integration's order and seeds (repeat v runs with seed + v*7919).
  const auto specs = Must(core::ResolveVoterSpecs(config.supervision), "voters");
  std::vector<std::vector<int>> partitions;
  std::map<std::string, double> voter_s;
  for (const core::VoterSpec& voter : specs) {
    ParamMap params = voter.params;
    if (!params.Has("k")) {
      params.Set("k", std::to_string(config.supervision.num_clusters));
    }
    auto clusterer = Must(clustering::ClustererRegistry::Global().Create(
                              voter.clusterer, params),
                          "voter " + voter.clusterer);
    for (int v = 0; v < voter.count; ++v) {
      const std::int64_t t0 = MonotonicMicros();
      auto result = clusterer->Cluster(
          x, spec.seed + static_cast<std::uint64_t>(v) * 7919ULL);
      const double s = Seconds(MonotonicMicros() - t0);
      if (v == 0) voter_s[voter.clusterer] = s;
      if (voter.clusterer == "ap" && v == 0) {
        out.Num("clustering.ap_iterations", result.iterations);
        out.Num("clustering.ap_ms_per_iter",
                s * 1e3 / std::max(1, result.iterations));
      }
      partitions.push_back(std::move(result.assignment));
    }
  }
  double slowest = 0;
  for (const char* name : {"dp", "kmeans", "ap"}) {
    out.Num(std::string("clustering.") + name + "_s", voter_s[name]);
  }
  for (const auto& [name, s] : voter_s) slowest = std::max(slowest, s);
  const std::int64_t integrate_start = MonotonicMicros();
  const voting::LocalSupervision integrated = voting::IntegratePartitions(
      partitions, config.supervision.strategy,
      config.supervision.min_cluster_size);
  out.Num("voting.integrate_s", Seconds(MonotonicMicros() - integrate_start));
  out.Num("voting.coverage", integrated.Coverage());
  out.Num("voting.credible_clusters", integrated.num_clusters);
  if (!is_sls) {
    const std::int64_t t0 = MonotonicMicros();
    supervision = Must(core::TryComputeSelfLearningSupervision(
                           x, config.supervision, spec.seed),
                       "supervise");
    supervise_s = Seconds(MonotonicMicros() - t0);
  }
  out.Bool("integration_matches",
           integrated.num_clusters == supervision.num_clusters &&
               integrated.Coverage() == supervision.Coverage());
  out.Num("core.supervise_s", supervise_s);
  out.Num("parallel.voter_fanout_ratio", supervise_s / slowest);
  out.Num("linalg.pairwise_s", MedianSeconds(
      [&] { linalg::PairwiseSquaredDistances(x); }, 0.2));

  // --- Kernels at the shapes the workloads run.
  const auto rows = x.rows();
  const auto cols = x.cols();
  const auto hid_units = encoder->weights().cols();
  out.Num("linalg.gemm_gflops", GemmGflops(rows, cols, hid_units));
  out.Num("linalg.gemm_gflops_row1", GemmGflops(1, cols, hid_units));
  out.Num("linalg.gemm_gflops_chunk64", GemmGflops(64, cols, hid_units));
  {
    std::size_t transformed = 0;
    const std::int64_t t0 = MonotonicMicros();
    while (Seconds(MonotonicMicros() - t0) < 0.3) {
      for (std::size_t b = 0; b < rows; b += 64) {
        transformed +=
            Must(model.Transform(RowSlice(x, b, std::min(rows, b + 64))),
                 "transform slice")
                .rows();
      }
    }
    out.Num("api.transform_rows_per_s",
            static_cast<double>(transformed) /
                Seconds(MonotonicMicros() - t0));
  }

  // --- Layer descent of the request mix.
  const int port = flags.Int("port");
  const int conns = flags.Int("conns");
  const int depth = flags.Int("depth");
  const std::string served_model = flags.Require("served-model");
  const api::Model serving = Must(api::Model::Load(served_model), "served model");
  const RequestMix mix = LoadRequestMix(flags, serving);
  const std::vector<RequestFile>& files = mix.files;
  const std::vector<RequestFile>& bulk = mix.bulk;
  std::vector<std::string> lines;
  std::vector<serve::Request> parsed;
  for (const RequestFile& f : files) {
    lines.push_back(TransformLine("t", served_model, f.path, 1));
    parsed.push_back(Must(serve::ParseRequestLine(lines.back()), "parse"));
  }
  std::atomic<std::uint64_t> descent_failures{0};
  auto expect = [&](bool ok) {
    if (!ok) descent_failures.fetch_add(1);
  };

  // net: the production server over TCP, each connection keeping `depth`
  // id-tagged requests in flight as the workload's clients do (the
  // pipelined handler-pool path when depth > 1).
  auto over_tcp = [&](const std::vector<RequestFile>* list, std::size_t chunk,
                      int in_flight) -> ConnRunner {
    return [&, list, chunk, in_flight](int c,
                                       const std::function<bool()>& more) {
      const ConnResult r = RunConnection(port, served_model, *list, chunk,
                                         in_flight, c, more);
      descent_failures.fetch_add(r.failed);
      return r.completed;
    };
  };
  const double net_us = DescentLevel(
      conns, files.size(), over_tcp(&files, 1, depth),
      bulk.empty() ? ConnRunner() : over_tcp(&bulk, kBulkChunk, 1));

  // parse: the request-line grammar alone.
  const double parse_us = [&] {
    std::size_t i = 0;
    return MedianSeconds(
               [&] {
                 for (int k = 0; k < 1000; ++k) {
                   expect(serve::ParseRequestLine(lines[i++ % lines.size()])
                              .ok());
                 }
               },
               0.2) *
           1e3;
  }();

  // execute / submit: an in-process Router with the CLI's serve defaults.
  serve::RouterConfig router_config;
  serve::Router router(router_config);
  serve::RequestExecutor executor(&router);
  const double execute_us = DescentLevel(
      conns, files.size(),
      Synchronous(files.size(),
                  [&](std::size_t f) {
                    bool ok = false;
                    const std::string response =
                        executor.Execute(parsed[f], "", &ok);
                    expect(ok && ParseResponse(response)["sum"] ==
                                     files[f].expected_sum);
                  }),
      bulk.empty() ? ConnRunner() : Synchronous(1, [&](std::size_t) {
        serve::Request request = parsed[0];
        request.data = bulk[0].path;
        request.chunk = kBulkChunk;
        bool ok = false;
        executor.Execute(request, "", &ok);
        expect(ok);
      }));
  auto submit_rows = [&](const linalg::Matrix& rows, std::size_t chunk) {
    std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
    for (std::size_t b = 0; b < rows.rows(); b += chunk) {
      futures.push_back(router.Submit(
          served_model, RowSlice(rows, b, std::min(rows.rows(), b + chunk))));
    }
    for (auto& f : futures) expect(f.get().ok());
  };
  const double submit_us = DescentLevel(
      conns, files.size(),
      Synchronous(files.size(),
                  [&](std::size_t f) { submit_rows(files[f].rows, 1); }),
      bulk.empty() ? ConnRunner() : Synchronous(1, [&](std::size_t) {
        submit_rows(bulk[0].rows, kBulkChunk);
      }));
  router.Shutdown();

  // transform: the model alone.
  const double transform_us = DescentLevel(
      conns, files.size(),
      Synchronous(files.size(),
                  [&](std::size_t f) {
                    expect(serving.Transform(files[f].rows).ok());
                  }),
      bulk.empty() ? ConnRunner() : Synchronous(1, [&](std::size_t) {
        const linalg::Matrix& rows = bulk[0].rows;
        for (std::size_t b = 0; b < rows.rows(); b += kBulkChunk) {
          expect(serving
                     .Transform(RowSlice(rows, b,
                                         std::min(rows.rows(), b + kBulkChunk)))
                     .ok());
        }
      }));

  out.Num("serve.parse_us", parse_us);
  out.Num("serve.execute_us", execute_us);
  out.Num("serve.submit_us", submit_us);
  out.Num("api.transform_us", transform_us);
  out.Num("net.self_us", net_us - parse_us - execute_us);
  out.Num("serve.executor_self_us", execute_us - submit_us);
  out.Num("serve.queue_us", submit_us - transform_us);
  out.Num("descent_failures", static_cast<double>(descent_failures.load()));
  out.WriteTo(flags.Require("out"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_tool prep|load|trace --flag value ...");
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  if (command == "prep") return RunPrep(flags);
  if (command == "load") return RunLoad(flags);
  if (command == "trace") return RunTrace(flags);
  Die("unknown command " + command);
}
