// obs::Counter / obs::Gauge — the two scalar metric kinds of the
// observability layer. Both are single atomics: safe from any thread,
// never blocking, cheap enough for the micro-batcher's enqueue path.
//
// A Counter only goes up (requests served, batches flushed); a Gauge is
// a live level that moves both ways (queue depth, pending rows). The
// distinction matters at aggregation time: counters from replica
// registries sum, and gauges sum too — a router-level queue-depth gauge
// is the total pressure across its replicas (obs::MetricsSnapshot).
#ifndef MCIRBM_OBS_METRICS_H_
#define MCIRBM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>

namespace mcirbm::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `by` and returns the new total. Concurrent callers each get a
  /// distinct total, so a hook keyed on the running count (e.g. "every N
  /// responses") sees every value exactly once.
  std::uint64_t Increment(std::uint64_t by = 1) {
    return value_.fetch_add(by, std::memory_order_relaxed) + by;
  }
  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Live level; Set overwrites, Add moves it by a signed delta.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double value = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(value, value + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

}  // namespace mcirbm::obs

#endif  // MCIRBM_OBS_METRICS_H_
