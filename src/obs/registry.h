// obs::Registry — named metrics with a model-key label, and the
// mergeable/renderable snapshot that carries them to the stats surfaces.
//
// A registry instance belongs to one component (a MicroBatcher, a
// ModelStore); metrics are keyed by {metric name, label value} where the
// label is by convention the model key (empty for component-wide
// metrics). Handles returned by counter()/gauge()/histogram() are stable
// for the registry's lifetime, so hot paths can cache them and record
// without re-resolving; resolution itself takes the registry mutex,
// recording never does.
//
// snapshot() produces an obs::MetricsSnapshot — a plain value type that
// merges associatively (counters and gauges sum, histograms merge
// bucket-wise), which is how serve::Router folds N replica registries
// plus the shared ModelStore's into one view. RenderText() emits the
// Prometheus-style text form, one `name{model="key"} value` line per
// metric (histograms expand to _count/_sum/_min/_max plus quantile
// lines):
//
//   serve_requests_total{model="enc.mcirbm"} 128
//   serve_queue_wait_micros{model="enc.mcirbm",quantile="0.95"} 412.7
//   serve_queue_wait_micros_count{model="enc.mcirbm"} 128
//
// Label values escape '"' and '\' (model keys derived from quoted user
// paths may contain either), so the exposition format stays parseable
// for any key.
#ifndef MCIRBM_OBS_REGISTRY_H_
#define MCIRBM_OBS_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mcirbm::obs {

/// {metric name, label value} — the label is the model key ("" = none).
using MetricKey = std::pair<std::string, std::string>;

/// Backslash-escapes '"' and '\' for quoted rendering contexts (label
/// values in RenderText, string fields in trace JSONL).
std::string EscapeLabel(const std::string& value);

/// Point-in-time value copy of a registry (or a merge of several).
struct MetricsSnapshot {
  std::map<MetricKey, std::uint64_t> counters;
  std::map<MetricKey, double> gauges;
  std::map<MetricKey, Histogram::Snapshot> histograms;

  /// Folds `other` in: counters and gauges sum, histograms merge
  /// bucket-wise. Associative and commutative.
  void Merge(const MetricsSnapshot& other);

  /// Counter `name` summed over every label (0 when absent) — the
  /// all-models total behind e.g. the CLI's `requests=` summary field.
  std::uint64_t CounterTotal(const std::string& name) const;
  /// Histogram `name` merged over every label (empty when absent), so
  /// its quantiles and mean describe the whole request stream.
  Histogram::Snapshot HistogramTotal(const std::string& name) const;

  /// Prometheus-style text: one `name{model="v"} value` line per scalar
  /// (no braces when the label is empty); histograms expand to
  /// quantile="0.5|0.9|0.95|0.99" lines plus `_count`, `_sum`, `_min`,
  /// and `_max`. Deterministic order (sorted by metric, then label).
  std::string RenderText() const;
};

/// Thread-safe collection of metrics owned by one serving component.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. The reference stays valid for the registry's
  /// lifetime; creation takes the registry mutex, recording on the
  /// returned handle never does.
  Counter& counter(const std::string& name, const std::string& label = "");
  Gauge& gauge(const std::string& name, const std::string& label = "");
  Histogram& histogram(const std::string& name,
                       const std::string& label = "");

  MetricsSnapshot snapshot() const;
  std::string RenderText() const { return snapshot().RenderText(); }

 private:
  mutable Mutex mu_;
  std::map<MetricKey, std::unique_ptr<Counter>> counters_
      MCIRBM_GUARDED_BY(mu_);
  std::map<MetricKey, std::unique_ptr<Gauge>> gauges_ MCIRBM_GUARDED_BY(mu_);
  std::map<MetricKey, std::unique_ptr<Histogram>> histograms_
      MCIRBM_GUARDED_BY(mu_);
};

}  // namespace mcirbm::obs

#endif  // MCIRBM_OBS_REGISTRY_H_
