// Umbrella header for the mcirbm serving layer.
//
// src/serve turns the one-shot api facade into a long-lived inference
// service:
//
//   - serve::ModelStore — LRU cache of shared, immutable api::Model
//     artifacts with hot-reload (serve/model_store.h);
//   - serve::MicroBatcher — per-model request coalescing into batched
//     matrix passes on the global parallel::ThreadPool, bit-identical to
//     one-at-a-time calls (serve/micro_batcher.h);
//   - serve::Router — the serving unit and client-facing facade:
//     Submit/SubmitEvaluate futures and hot reload over one shared
//     ModelStore and N MicroBatcher replicas, each key routed by its
//     hash, with fail-fast per-queue backpressure (serve/router.h);
//   - serve::ParseRequestLine — the serve request-line format, including
//     the op=stats / op=trace observability probes, op=reload hot-swaps,
//     and the pipelining id= tag (serve/request.h);
//   - serve::RequestExecutor — executes parsed requests against a Router
//     and formats responses; the piece shared by the CLI's file/stdin
//     loop and the src/net TCP transport (serve/executor.h).
//
// Every component records into its own src/obs registry (latency
// histograms, queue gauges, counters) and keeps no other tally;
// Router::metrics_snapshot() is the merged view, and
// RequestExecutor::RenderStatsText() its Prometheus-style text. With
// trace sampling on (obs/trace.h, `--trace-sample N`) every stage also
// contributes per-request spans — parse/load/queue/exec/format (+ the
// transport's flush) — surfaced via op=trace, the --stats-port
// endpoint, and a JSONL stream.
//
// Everything fallible reports through Status/StatusOr; a shut-down or
// overloaded service rejects work with StatusCode::kUnavailable.
#ifndef MCIRBM_SERVE_SERVE_H_
#define MCIRBM_SERVE_SERVE_H_

#include "serve/executor.h"
#include "serve/micro_batcher.h"
#include "serve/model_store.h"
#include "serve/request.h"
#include "serve/router.h"

#endif  // MCIRBM_SERVE_SERVE_H_
