// net::LineServer — the TCP front door of the serve stack: a
// multi-client, pipelined line-protocol server over
// serve::RequestExecutor.
//
// Threading model (all plain blocking I/O; the compute layers stay on
// the parallel::ThreadPool):
//
//   - one accept thread polls the Listener with a short timeout so
//     Drain() can stop it promptly;
//   - one reader thread per connection parses request lines
//     (serve::ParseRequestLine) and answers them;
//   - a shared pool of `handler_threads` executes id-tagged requests, so
//     one connection can have many requests in flight and responses
//     interleave in completion order (the pipelining contract of
//     serve/request.h). Requests WITHOUT an id run inline on the
//     connection's reader thread — strict per-connection FIFO responses,
//     exactly like the file-mode serve loop.
//
// Dedicated reader threads instead of the parallel::ThreadPool on
// purpose: readers block on socket I/O for their whole lifetime, and
// parking them in the pool would starve the batched-inference regions
// that pool exists for.
//
// Per-connection rules:
//   - a request whose id is already in flight on that connection is
//     rejected with an error response (ids are reusable once answered);
//   - a malformed line gets an error response and the connection stays
//     usable (counted in net_protocol_errors_total); so does a line longer
//     than Connection::max_line_bytes (1 MiB);
//   - when the client half-closes (EOF), every request already read is
//     finished and its response flushed, then the server closes its side
//     — so `send everything; shutdown(WR); read until EOF` is a
//     complete, lossless client session.
//
// Graceful drain — Drain(), also run by the destructor — follows the
// same shape server-wide: stop accepting, stop reading new requests,
// finish every request already admitted (their futures resolve through
// the executor), flush the responses, close every connection, join every
// thread. Idempotent. The Router behind the executor is NOT shut down;
// that belongs to the owner, after Drain returns.
//
// Observability (registry(), merged into op=stats by the owner via
// RequestExecutor::AddStatsRegistry): net_connections_open gauge,
// net_{accepted,requests,responses,error_responses,protocol_errors}_total
// counters, and a net_request_micros histogram measuring read-to-flushed
// wall time per request. These are the transport's only tallies: the
// listen-mode `# served= failed=` line reads net_responses_total and
// net_error_responses_total from the snapshot. When the executor has a
// trace store, each sampled request's trace starts at the same post-read
// timestamp net_request_micros uses, gains a "flush" span around the
// response write, and is finished right after it — so a trace's
// end-to-end window is the histogram's measurement, decomposed.
#ifndef MCIRBM_NET_LINE_SERVER_H_
#define MCIRBM_NET_LINE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "obs/registry.h"
#include "serve/executor.h"
#include "serve/request.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mcirbm::net {

/// TCP transport knobs.
struct LineServerConfig {
  /// Bind address. Loopback by default (tests, local benches); a
  /// deployment that should accept remote clients binds "0.0.0.0".
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral one (read it back from
  /// port() after Start).
  int port = 0;
  /// Threads executing id-tagged (pipelined) requests across all
  /// connections. Clamped to >= 1. Untagged requests always run on
  /// their connection's reader thread.
  int handler_threads = 4;
};

/// Multi-client pipelined line-protocol server over a RequestExecutor.
class LineServer {
 public:
  /// `executor` must outlive the server.
  LineServer(const LineServerConfig& config,
             serve::RequestExecutor* executor);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds, listens, and starts the accept + handler threads.
  Status Start();

  /// The bound port once Start succeeded (resolves port-0 requests).
  int port() const { return port_; }

  /// Graceful drain; see the file comment. Idempotent, safe to call
  /// concurrently with serving (that is its job).
  void Drain();

  /// Called after every response is flushed, with the total number of
  /// responses written so far (net_responses_total, each value exactly
  /// once) — the CLI's --stats-every hook. Set before Start; runs on
  /// reader/handler threads, so it must be thread-safe.
  void set_response_hook(std::function<void(std::uint64_t)> hook) {
    response_hook_ = std::move(hook);
  }

  /// This transport's net_* metrics. Fold into the stats surface with
  /// RequestExecutor::AddStatsRegistry(&server.registry()).
  const obs::Registry& registry() const { return registry_; }
  obs::MetricsSnapshot metrics_snapshot() const {
    return registry_.snapshot();
  }

 private:
  /// Per-connection state shared by its reader, the handler pool, and
  /// Drain.
  struct Conn {
    Connection connection;
    /// Serializes response writes so pipelined responses never
    /// interleave mid-payload.
    Mutex write_mu;
    /// Peer gone, stop writing.
    bool write_failed MCIRBM_GUARDED_BY(write_mu) = false;
    /// Lifecycle: in-flight pipelined requests + id dedup set. Lock
    /// order: state_mu may be taken before write_mu (handlers couple the
    /// response write with the id release), never the reverse — the
    /// ACQUIRED_BEFORE declaration has the thread-safety beta pass
    /// check that order at compile time.
    Mutex state_mu MCIRBM_ACQUIRED_BEFORE(write_mu);
    CondVar idle_cv;
    std::set<std::string> inflight_ids MCIRBM_GUARDED_BY(state_mu);
    std::size_t inflight MCIRBM_GUARDED_BY(state_mu) = 0;
    /// Serializes Shutdown*/Close against each other (socket.h contract).
    Mutex io_mu;
    bool closed MCIRBM_GUARDED_BY(io_mu) = false;
  };

  /// One id-tagged request dispatched to the handler pool.
  struct Task {
    std::shared_ptr<Conn> conn;
    serve::Request request;
    std::int64_t start_micros = 0;
    std::shared_ptr<obs::TraceContext> trace;  // null when unsampled
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Conn> conn);
  void HandlerLoop();
  /// Executes `request` and writes the response (used inline by readers
  /// for untagged requests and by handlers for id-tagged ones).
  void ExecuteAndRespond(const std::shared_ptr<Conn>& conn,
                         const serve::Request& request,
                         std::int64_t start_micros,
                         const std::shared_ptr<obs::TraceContext>& trace);
  /// Writes one already-formatted response payload and records the
  /// request's wall time + counters. A non-null `trace` gets its "flush"
  /// span here and is finished (committed to the store) right after.
  void WriteResponse(const std::shared_ptr<Conn>& conn,
                     const std::string& payload, bool ok,
                     std::int64_t start_micros,
                     const std::shared_ptr<obs::TraceContext>& trace = {});
  void CloseConn(const std::shared_ptr<Conn>& conn);

  const LineServerConfig config_;
  serve::RequestExecutor* const executor_;
  std::function<void(std::uint64_t)> response_hook_;

  Listener listener_;
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> drained_{false};
  Mutex drain_mu_;  // serializes concurrent Drain calls

  std::thread accept_thread_;
  Mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_ MCIRBM_GUARDED_BY(conns_mu_);
  std::vector<std::thread> reader_threads_ MCIRBM_GUARDED_BY(conns_mu_);

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Task> queue_ MCIRBM_GUARDED_BY(queue_mu_);
  bool handlers_stop_ MCIRBM_GUARDED_BY(queue_mu_) = false;
  std::vector<std::thread> handler_threads_;

  obs::Registry registry_;
  // Handles resolved once in the constructor (creating the series, so
  // they render as 0 before any traffic); recording is lock-free.
  obs::Counter* accepted_total_;
  obs::Counter* requests_total_;
  obs::Counter* responses_total_;
  obs::Counter* error_responses_total_;
  obs::Counter* protocol_errors_total_;
  obs::Gauge* connections_open_;
  obs::Histogram* request_micros_;
};

}  // namespace mcirbm::net

#endif  // MCIRBM_NET_LINE_SERVER_H_
