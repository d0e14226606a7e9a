// net::LineServer — the TCP transport end to end: per-op loopback round
// trips against a real Router, pipelined out-of-order completion with
// id matching, strict FIFO for untagged requests, protocol-error and
// half-close handling, duplicate-id rejection, drain under load, and
// the read-only TextEndpoint. Runs under ThreadSanitizer in CI.
#include "net/line_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.h"
#include "data/io.h"
#include "data/loaders.h"
#include "data/source.h"
#include "data/synthetic.h"
#include "net/client.h"
#include "net/text_endpoint.h"
#include "serve/executor.h"
#include "serve/router.h"
#include "util/mutex.h"
#include "util/string_util.h"

namespace mcirbm::net {
namespace {

data::Dataset TestDataset(int num_instances = 32) {
  data::GaussianMixtureSpec spec;
  spec.name = "net";
  spec.num_classes = 2;
  spec.num_instances = num_instances;
  spec.num_features = 6;
  spec.separation = 6.0;
  return data::GenerateGaussianMixture(spec, 21);
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
  const std::size_t end = line.find(' ', begin);
  return line.substr(begin, end == std::string::npos ? end : end - begin);
}

class LineServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = TestDataset();
    data_path_ = ::testing::TempDir() + "/net_data.csv";
    model_path_ = ::testing::TempDir() + "/net_model.mcirbm";
    out_path_ = ::testing::TempDir() + "/net_features.csv";
    ASSERT_TRUE(data::SaveDatasetCsv(ds_, data_path_).ok());
    core::PipelineConfig config;
    config.model = core::ModelKind::kGrbm;
    config.rbm.num_hidden = 5;
    config.rbm.epochs = 2;
    config.rbm.batch_size = 10;
    auto model = api::Model::Train(ds_.x, config, 33);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model.value().Save(model_path_).ok());
    // The reference features go through the same CSV round trip the
    // served transform reads, so the comparison sees identical inputs.
    auto loaded = data::LoadDatasetCsv(data_path_, data_path_);
    ASSERT_TRUE(loaded.ok());
    reference_ = model.value().Transform(loaded.value().x).value();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Drain();
    if (router_ != nullptr) router_->Shutdown();
    std::remove(data_path_.c_str());
    std::remove(model_path_.c_str());
    std::remove(out_path_.c_str());
  }

  void StartServer(int handler_threads = 2) {
    serve::RouterConfig config;
    config.replicas = 2;
    router_ = std::make_unique<serve::Router>(config);
    executor_ = std::make_unique<serve::RequestExecutor>(router_.get());
    LineServerConfig net_config;
    net_config.handler_threads = handler_threads;
    server_ = std::make_unique<LineServer>(net_config, executor_.get());
    executor_->AddStatsRegistry(&server_->registry());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  Client ConnectClient() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  // Reads one complete response: the ok/error line, plus the metric
  // lines an op=stats ok line announces via its metrics=<n> count.
  // Returns the first line; the metric payload goes to `body` when
  // given.
  Status ReadResponse(Client* client, std::string* first,
                      std::string* body = nullptr) {
    const Status status = client->ReadLine(first);
    if (!status.ok()) return status;
    if (body != nullptr) body->clear();
    const std::string metrics = Token(*first, "metrics");
    if (metrics.empty()) return Status::Ok();
    const int count = std::stoi(metrics);
    std::string line;
    for (int i = 0; i < count; ++i) {
      const Status read = client->ReadLine(&line);
      if (!read.ok()) return read;
      if (body != nullptr) (*body) += line + "\n";
    }
    return Status::Ok();
  }

  std::string TransformRequest(const std::string& extra = "") {
    return "op=transform model=" + model_path_ + " data=" + data_path_ +
           " chunk=4" + extra;
  }

  std::string EvaluateRequest(const std::string& extra = "") {
    return "op=evaluate model=" + model_path_ + " data=" + data_path_ +
           extra;
  }

  data::Dataset ds_;
  linalg::Matrix reference_;
  std::string data_path_, model_path_, out_path_;
  std::unique_ptr<serve::Router> router_;
  std::unique_ptr<serve::RequestExecutor> executor_;
  std::unique_ptr<LineServer> server_;
};

TEST_F(LineServerTest, TransformRoundTripMatchesDirectTransform) {
  StartServer();
  Client client = ConnectClient();
  ASSERT_TRUE(client.SendLine(TransformRequest(" out=" + out_path_)).ok());
  std::string response;
  ASSERT_TRUE(ReadResponse(&client, &response).ok());
  EXPECT_EQ(response.rfind("ok op=transform", 0), 0u) << response;
  EXPECT_EQ(Token(response, "rows"), std::to_string(ds_.x.rows()));
  EXPECT_EQ(Token(response, "sum"), FormatDouble(reference_.Sum(), 6));
  // The out= CSV holds the same features a direct Model::Transform
  // produces (modulo the CSV text round trip).
  auto features = data::LoadDatasetCsv(out_path_, out_path_);
  ASSERT_TRUE(features.ok());
  EXPECT_TRUE(features.value().x.AllClose(reference_, 1e-9));
}

TEST_F(LineServerTest, EvaluateRoundTripMatchesDirectEvaluate) {
  StartServer();
  auto model = api::Model::Load(model_path_);
  ASSERT_TRUE(model.ok());
  auto loaded = data::LoadDatasetCsv(data_path_, data_path_);
  ASSERT_TRUE(loaded.ok());
  auto direct = model.value().Evaluate(loaded.value().x,
                                       loaded.value().labels);
  ASSERT_TRUE(direct.ok());

  Client client = ConnectClient();
  ASSERT_TRUE(client.SendLine(EvaluateRequest(" id=e1")).ok());
  std::string response;
  ASSERT_TRUE(ReadResponse(&client, &response).ok());
  EXPECT_EQ(response.rfind("ok id=e1 op=evaluate", 0), 0u) << response;
  EXPECT_EQ(Token(response, "clusters"),
            std::to_string(direct.value().clusters_found));
  EXPECT_EQ(Token(response, "accuracy"),
            FormatDouble(direct.value().metrics.accuracy, 4));
  EXPECT_EQ(Token(response, "nmi"),
            FormatDouble(direct.value().metrics.nmi, 4));
}

TEST_F(LineServerTest, StatsRoundTripCarriesNetAndServeMetrics) {
  StartServer();
  Client client = ConnectClient();
  ASSERT_TRUE(client.SendLine("op=stats id=s1").ok());
  std::string response, body;
  ASSERT_TRUE(ReadResponse(&client, &response, &body).ok());
  EXPECT_EQ(response.rfind("ok id=s1 op=stats metrics=", 0), 0u)
      << response;
  // The transport's registry is folded into the same surface as the
  // router's serving metrics.
  EXPECT_NE(body.find("net_connections_open 1"), std::string::npos) << body;
  EXPECT_NE(body.find("net_requests_total 1"), std::string::npos);
  EXPECT_NE(body.find("net_request_micros"), std::string::npos);
  EXPECT_NE(body.find("serve_replicas 2"), std::string::npos);
}

TEST_F(LineServerTest, PipelinedResponsesCompleteOutOfOrder) {
  // The slow request evaluates a large set: on the 32-row set it takes
  // about a millisecond, and on a loaded host a descheduled second
  // handler let it finish first.
  const std::string big_path = ::testing::TempDir() + "/net_big.csv";
  ASSERT_TRUE(data::SaveDatasetCsv(TestDataset(20000), big_path).ok());
  StartServer(/*handler_threads=*/2);
  Client client = ConnectClient();
  // A slow request tagged first, a cheap one tagged second: with two
  // handlers the cheap response overtakes — completion order, not
  // submission order.
  ASSERT_TRUE(client
                  .SendLine("op=evaluate model=" + model_path_ +
                            " data=" + big_path + " id=slow")
                  .ok());
  ASSERT_TRUE(client.SendLine("op=stats id=fast").ok());
  std::string first, second;
  ASSERT_TRUE(ReadResponse(&client, &first).ok());
  ASSERT_TRUE(ReadResponse(&client, &second).ok());
  EXPECT_EQ(Token(first, "id"), "fast") << first;
  EXPECT_EQ(Token(second, "id"), "slow") << second;
  std::remove(big_path.c_str());
}

TEST_F(LineServerTest, UntaggedRequestsAnswerInStrictFifoOrder) {
  StartServer();
  Client client = ConnectClient();
  ASSERT_TRUE(client.SendLine(EvaluateRequest()).ok());
  ASSERT_TRUE(client.SendLine("op=stats").ok());
  ASSERT_TRUE(client.SendLine(TransformRequest()).ok());
  std::string response;
  ASSERT_TRUE(ReadResponse(&client, &response).ok());
  EXPECT_EQ(Token(response, "op"), "evaluate");
  ASSERT_TRUE(ReadResponse(&client, &response).ok());
  EXPECT_EQ(Token(response, "op"), "stats");
  ASSERT_TRUE(ReadResponse(&client, &response).ok());
  EXPECT_EQ(Token(response, "op"), "transform");
}

TEST_F(LineServerTest, MalformedLineAnswersErrorAndKeepsConnection) {
  StartServer();
  Client client = ConnectClient();
  ASSERT_TRUE(client.SendLine("op=bogus nonsense").ok());
  std::string response;
  ASSERT_TRUE(ReadResponse(&client, &response).ok());
  EXPECT_EQ(response.rfind("error ", 0), 0u) << response;
  // The connection survives the protocol error.
  ASSERT_TRUE(client.SendLine("op=stats").ok());
  ASSERT_TRUE(ReadResponse(&client, &response).ok());
  EXPECT_EQ(response.rfind("ok op=stats", 0), 0u) << response;
  const obs::MetricsSnapshot snapshot = server_->metrics_snapshot();
  EXPECT_EQ(snapshot.counters.at({"net_protocol_errors_total", ""}), 1u);
  EXPECT_EQ(snapshot.counters.at({"net_requests_total", ""}), 2u);
  // The reader counted the first response before it read the second
  // line, so the error tally is already final here.
  EXPECT_EQ(snapshot.counters.at({"net_error_responses_total", ""}), 1u);
}

// Loads through the "net_gate:" scheme wait until the gate opens, so a
// request that reads one holds its handler for as long as a test needs.
Mutex g_gate_mu;
CondVar g_gate_cv;
bool g_gate_open MCIRBM_GUARDED_BY(g_gate_mu) = true;

void SetGate(bool open) {
  MutexLock lock(g_gate_mu);
  g_gate_open = open;
  g_gate_cv.NotifyAll();
}

StatusOr<std::unique_ptr<data::DataSource>> GatedLoad(
    const std::string&, const data::DataSourceConfig& config) {
  {
    MutexLock lock(g_gate_mu);
    while (!g_gate_open) g_gate_cv.Wait(g_gate_mu);
  }
  return data::MakeInMemorySource(TestDataset(), config);
}

// Opens the gate when the test body ends, however it ends, so the held
// handler lets the server drain.
struct GateOpener {
  ~GateOpener() { SetGate(true); }
};

TEST_F(LineServerTest, DuplicateInFlightIdRejectedThenReusable) {
  static const bool registered =
      data::DataLoaderRegistry::Global().Register("net_gate", GatedLoad).ok();
  ASSERT_TRUE(registered);
  // The one handler holds id=q on a closed gate, so id=b waits in the
  // queue behind it until the duplicate line has been rejected.
  StartServer(/*handler_threads=*/1);
  SetGate(false);
  const GateOpener opener;
  Client client = ConnectClient();
  ASSERT_TRUE(client
                  .SendLine("op=transform model=" + model_path_ +
                            " data=net_gate:held id=q")
                  .ok());
  ASSERT_TRUE(client.SendLine("op=stats id=b").ok());
  ASSERT_TRUE(client.SendLine("op=stats id=b").ok());
  // The rejection is written inline by the reader, ahead of every queued
  // response.
  std::string response;
  ASSERT_TRUE(ReadResponse(&client, &response).ok());
  EXPECT_EQ(response.rfind("error id=b", 0), 0u) << response;
  EXPECT_NE(response.find("duplicate id"), std::string::npos) << response;
  SetGate(true);
  ASSERT_TRUE(ReadResponse(&client, &response).ok());
  EXPECT_EQ(response.rfind("ok id=q op=transform", 0), 0u) << response;
  ASSERT_TRUE(ReadResponse(&client, &response).ok());
  EXPECT_EQ(Token(response, "id"), "b");
  // Once answered, the id is free again.
  ASSERT_TRUE(client.SendLine("op=stats id=b").ok());
  ASSERT_TRUE(ReadResponse(&client, &response).ok());
  EXPECT_EQ(response.rfind("ok id=b op=stats", 0), 0u) << response;
}

TEST_F(LineServerTest, HalfClosedConnectionDrainsEveryResponse) {
  StartServer();
  Client client = ConnectClient();
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.SendLine("op=stats id=r" + std::to_string(i)).ok());
  }
  client.ShutdownWrite();  // nc -N style: send everything, read to EOF
  int received = 0;
  std::string response;
  while (ReadResponse(&client, &response).ok()) {
    EXPECT_EQ(response.rfind("ok id=r", 0), 0u) << response;
    ++received;
  }
  EXPECT_EQ(received, kRequests);
}

TEST_F(LineServerTest, DrainUnderLoadResolvesEveryAdmittedRequestOnce) {
  StartServer(/*handler_threads=*/2);
  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 30;
  std::atomic<int> ready{0};
  std::atomic<int> received_total{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client = ConnectClient();
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const Status sent = client.SendLine(
            "op=stats id=c" + std::to_string(c) + "-" + std::to_string(i));
        if (!sent.ok()) break;  // server already shut this side down
      }
      // Hold the drain until every client has at least one response in
      // hand, so the shutdown races genuinely in-flight traffic.
      std::string response;
      if (ReadResponse(&client, &response).ok()) {
        received_total.fetch_add(1);
      }
      ready.fetch_add(1);
      while (ReadResponse(&client, &response).ok()) {
        received_total.fetch_add(1);
      }
    });
  }
  while (ready.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->Drain();
  for (std::thread& t : clients) t.join();

  // Every request the server read was answered exactly once, every
  // response reached a client, and every connection is closed.
  const obs::MetricsSnapshot snapshot = server_->metrics_snapshot();
  const std::uint64_t requests =
      snapshot.counters.at({"net_requests_total", ""});
  const std::uint64_t responses =
      snapshot.counters.at({"net_responses_total", ""});
  EXPECT_EQ(requests, responses);
  EXPECT_EQ(static_cast<std::uint64_t>(received_total.load()), responses);
  EXPECT_GE(responses, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(snapshot.gauges.at({"net_connections_open", ""}), 0.0);
  // Every op=stats line is well-formed, so every response is ok.
  EXPECT_EQ(snapshot.counters.at({"net_error_responses_total", ""}), 0u);
}

TEST_F(LineServerTest, ResponseHookReportsRunningTotals) {
  serve::RouterConfig config;
  router_ = std::make_unique<serve::Router>(config);
  executor_ = std::make_unique<serve::RequestExecutor>(router_.get());
  LineServerConfig net_config;
  server_ = std::make_unique<LineServer>(net_config, executor_.get());
  std::atomic<std::uint64_t> last_total{0};
  server_->set_response_hook(
      [&last_total](std::uint64_t total) { last_total.store(total); });
  ASSERT_TRUE(server_->Start().ok());
  Client client = ConnectClient();
  std::string response;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.SendLine("op=stats").ok());
    ASSERT_TRUE(ReadResponse(&client, &response).ok());
  }
  // The hook runs on the serving thread after the response is flushed,
  // so it can trail the client's read by a beat.
  for (int spin = 0; spin < 2000 && last_total.load() < 3u; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(last_total.load(), 3u);
}

TEST_F(LineServerTest, TextEndpointServesSnapshotToEveryConnection) {
  StartServer();
  TextEndpoint endpoint("127.0.0.1", 0,
                        [this] { return executor_->RenderStatsText(); });
  ASSERT_TRUE(endpoint.Start().ok());
  ASSERT_GT(endpoint.port(), 0);
  for (int probe = 0; probe < 2; ++probe) {
    auto connected = Client::Connect("127.0.0.1", endpoint.port());
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    Client client = std::move(connected).value();
    std::ostringstream body;
    std::string line;
    while (client.ReadLine(&line).ok()) body << line << "\n";
    EXPECT_NE(body.str().find("serve_replicas 2"), std::string::npos)
        << "probe " << probe << ":\n"
        << body.str();
    EXPECT_NE(body.str().find("net_connections_open"), std::string::npos);
  }
  endpoint.Stop();
}

}  // namespace
}  // namespace mcirbm::net
