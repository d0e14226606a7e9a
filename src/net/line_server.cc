#include "net/line_server.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"
#include "util/timer.h"

namespace mcirbm::net {

namespace {

/// Accept-poll period: the latency bound on noticing Drain().
constexpr int kAcceptTimeoutMs = 100;

}  // namespace

LineServer::LineServer(const LineServerConfig& config,
                       serve::RequestExecutor* executor)
    : config_(config),
      executor_(executor),
      accepted_total_(&registry_.counter("net_accepted_total")),
      requests_total_(&registry_.counter("net_requests_total")),
      responses_total_(&registry_.counter("net_responses_total")),
      error_responses_total_(
          &registry_.counter("net_error_responses_total")),
      protocol_errors_total_(
          &registry_.counter("net_protocol_errors_total")),
      connections_open_(&registry_.gauge("net_connections_open")),
      request_micros_(&registry_.histogram("net_request_micros")) {}

LineServer::~LineServer() { Drain(); }

Status LineServer::Start() {
  auto listener = Listener::Bind(config_.host, config_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  port_ = listener_.port();
  const int handlers = std::max(1, config_.handler_threads);
  handler_threads_.reserve(static_cast<std::size_t>(handlers));
  for (int i = 0; i < handlers; ++i) {
    handler_threads_.emplace_back([this] { HandlerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_.store(true, std::memory_order_release);
  return Status::Ok();
}

void LineServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto accepted = listener_.Accept(kAcceptTimeoutMs);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kUnavailable) continue;
      break;  // listener broken; Drain still joins us cleanly
    }
    accepted_total_->Increment();
    connections_open_->Add(1);
    auto conn = std::make_shared<Conn>();
    conn->connection = Connection(std::move(accepted).value());
    MutexLock lock(conns_mu_);
    conns_.push_back(conn);
    reader_threads_.emplace_back([this, conn] { ReaderLoop(conn); });
  }
}

void LineServer::ReaderLoop(std::shared_ptr<Conn> conn) {
  std::string line;
  while (!stopping_.load(std::memory_order_acquire)) {
    const Status read = conn->connection.ReadLine(&line);
    if (!read.ok()) {
      if (read.code() == StatusCode::kInvalidArgument) {
        // Oversized line: a protocol violation, not a dead peer — answer
        // it and keep the connection.
        requests_total_->Increment();
        protocol_errors_total_->Increment();
        WriteResponse(conn,
                      serve::RequestExecutor::FormatError(read, "", ""),
                      /*ok=*/false, MonotonicMicros());
        continue;
      }
      break;  // clean EOF / half-close (kUnavailable) or socket error
    }
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const std::int64_t start = MonotonicMicros();
    requests_total_->Increment();
    auto parsed = serve::ParseRequestLine(trimmed);
    if (!parsed.ok()) {
      // A malformed line cannot carry a trustworthy id; answer untagged.
      protocol_errors_total_->Increment();
      WriteResponse(
          conn,
          serve::RequestExecutor::FormatError(parsed.status(), "", ""),
          /*ok=*/false, start);
      continue;
    }
    const serve::Request& request = parsed.value();
    // Sampling decision at the same timestamp net_request_micros starts
    // from: the trace window is exactly that measurement, decomposed.
    auto trace = executor_->StartTrace(request, start);
    if (request.id.empty()) {
      // Untagged: execute inline — strict per-connection FIFO responses.
      ExecuteAndRespond(conn, request, start, trace);
      continue;
    }
    bool duplicate = false;
    {
      MutexLock state(conn->state_mu);
      if (conn->inflight_ids.insert(request.id).second) {
        ++conn->inflight;
      } else {
        duplicate = true;
      }
    }
    if (duplicate) {
      protocol_errors_total_->Increment();
      WriteResponse(conn,
                    serve::RequestExecutor::FormatError(
                        Status::InvalidArgument("duplicate id '" +
                                                request.id +
                                                "' already in flight"),
                        request.id, ""),
                    /*ok=*/false, start);
      continue;
    }
    {
      MutexLock lock(queue_mu_);
      queue_.push_back(Task{conn, request, start, std::move(trace)});
    }
    queue_cv_.NotifyOne();
  }
  // Connection drain: everything this reader admitted to the handler
  // pool must finish and flush before the socket closes.
  {
    MutexLock state(conn->state_mu);
    while (conn->inflight != 0) conn->idle_cv.Wait(conn->state_mu);
  }
  CloseConn(conn);
}

void LineServer::HandlerLoop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(queue_mu_);
      while (!handlers_stop_ && queue_.empty()) queue_cv_.Wait(queue_mu_);
      if (queue_.empty()) return;  // only when handlers_stop_
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    bool ok = false;
    const std::string payload =
        executor_->Execute(task.request, "", &ok, task.trace);
    {
      // The response write and the id release are atomic with respect to
      // the reader's duplicate check: a client that reads its response
      // and immediately reuses the id must never be rejected, and a
      // duplicate sent before the response is written must always be.
      MutexLock state(task.conn->state_mu);
      WriteResponse(task.conn, payload, ok, task.start_micros, task.trace);
      task.conn->inflight_ids.erase(task.request.id);
      --task.conn->inflight;
    }
    task.conn->idle_cv.NotifyAll();
  }
}

void LineServer::ExecuteAndRespond(
    const std::shared_ptr<Conn>& conn, const serve::Request& request,
    std::int64_t start_micros,
    const std::shared_ptr<obs::TraceContext>& trace) {
  bool ok = false;
  const std::string payload = executor_->Execute(request, "", &ok, trace);
  WriteResponse(conn, payload, ok, start_micros, trace);
}

void LineServer::WriteResponse(
    const std::shared_ptr<Conn>& conn, const std::string& payload, bool ok,
    std::int64_t start_micros,
    const std::shared_ptr<obs::TraceContext>& trace) {
  const std::int64_t flush_start = MonotonicMicros();
  {
    MutexLock lock(conn->write_mu);
    if (!conn->write_failed) {
      const Status written = conn->connection.WriteAll(payload);
      // A dead peer stops further writes on this connection but must not
      // kill the request stream already executing against it.
      if (!written.ok()) conn->write_failed = true;
    }
  }
  if (trace != nullptr) {
    trace->AddSpan("flush", flush_start, MonotonicMicros() - flush_start);
    executor_->FinishTrace(trace);
  }
  request_micros_->Record(
      static_cast<double>(MonotonicMicros() - start_micros));
  if (!ok) error_responses_total_->Increment();
  const std::uint64_t total = responses_total_->Increment();
  if (response_hook_) response_hook_(total);
}

void LineServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  MutexLock lock(conn->io_mu);
  if (conn->closed) return;
  conn->closed = true;
  conn->connection.Close();
  connections_open_->Add(-1);
}

void LineServer::Drain() {
  MutexLock drain_lock(drain_mu_);
  if (drained_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (started_.load(std::memory_order_acquire)) {
    // 1. Stop accepting (the poll loop notices within kAcceptTimeoutMs).
    accept_thread_.join();
    // 2. Unblock every reader; each finishes its in-flight requests,
    //    flushes their responses, and closes its connection.
    {
      MutexLock lock(conns_mu_);
      for (const auto& conn : conns_) {
        MutexLock io(conn->io_mu);
        if (!conn->closed) conn->connection.ShutdownRead();
      }
    }
    // Holding conns_mu_ across the joins is safe: the accept thread (the
    // only other writer) is already joined, and readers never take
    // conns_mu_.
    MutexLock lock(conns_mu_);
    for (std::thread& reader : reader_threads_) reader.join();
  }
  // 3. Handlers exit once the queue is empty; readers are joined, so no
  //    new work can arrive.
  {
    MutexLock lock(queue_mu_);
    handlers_stop_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& handler : handler_threads_) handler.join();
  listener_.Close();
  drained_.store(true, std::memory_order_release);
}

}  // namespace mcirbm::net
