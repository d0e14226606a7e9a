// ModelStore — shared-ownership cache of api::Model artifacts for the
// serving layer.
//
// The store maps a key (normally the artifact path on disk) to an
// immutable, shared api::Model instance:
//
//   serve::ModelStore store(/*capacity=*/8);
//   auto model = store.Get("encoder.mcirbm");     // loads + caches
//   auto again = store.Get("encoder.mcirbm");     // cache hit, same instance
//   store.Reload("encoder.mcirbm");               // hot-swap from disk
//
// Concurrency: every method is safe to call from any thread. Readers
// receive `shared_ptr<const api::Model>`, so eviction and hot-reload never
// invalidate a model that a batch in flight is still using — the old
// instance is destroyed when its last reference drops. Disk loads happen
// outside the store lock, so a slow load never blocks cache hits on other
// keys; two threads racing to load the same key both succeed and converge
// on a single cached instance.
//
// Eviction is LRU over `capacity` entries. A failed Reload keeps the
// previously cached instance (serving continues on the stale model and
// the error is reported to the caller).
#ifndef MCIRBM_SERVE_MODEL_STORE_H_
#define MCIRBM_SERVE_MODEL_STORE_H_

#include <list>
#include <map>
#include <memory>
#include <string>

#include "api/model.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mcirbm::serve {

/// LRU cache of shared, immutable api::Model instances keyed by path.
class ModelStore {
 public:
  /// `capacity` bounds the number of cached models (clamped to >= 1).
  explicit ModelStore(std::size_t capacity = 8);

  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  /// Returns the cached model for `key`, loading it from disk (key ==
  /// path) on a miss. Load failures are returned and not cached.
  /// A non-null `trace` receives a "load" span when the call misses and
  /// goes to disk (cache hits add nothing — there is nothing to time).
  StatusOr<std::shared_ptr<const api::Model>> Get(
      const std::string& key, obs::TraceContext* trace = nullptr);

  /// Inserts an in-memory model under `key` (replacing any cached entry)
  /// and returns the shared instance. Used by benchmarks/tests and any
  /// embedder that trains in-process; such keys have no backing file, so
  /// Reload on them fails until one exists.
  std::shared_ptr<const api::Model> Put(const std::string& key,
                                        api::Model model);

  /// Re-reads `key` from disk and atomically swaps the cached entry.
  /// In-flight readers keep the old instance. On failure the previous
  /// entry (if any) stays cached and serving continues. A non-null
  /// `trace` receives a "reload" span covering the disk read.
  Status Reload(const std::string& key, obs::TraceContext* trace = nullptr);

  /// Drops `key` from the cache (in-flight readers are unaffected).
  /// Returns true if an entry was removed.
  bool Evict(const std::string& key);

  /// Number of cached models.
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Monotonic store_hits_total, store_misses_total (Get calls that went
  /// to disk), store_evictions_total (LRU evictions, not explicit Evict)
  /// and store_reloads_total (successful Reload swaps), plus per-model-key
  /// store_load_micros / store_reload_micros disk-latency histograms
  /// (successful loads only — a failed probe has no artifact to label
  /// honestly). Merged into the serve-layer snapshot by serve::Router.
  obs::MetricsSnapshot metrics_snapshot() const {
    return registry_.snapshot();
  }

 private:
  struct Entry {
    std::shared_ptr<const api::Model> model;
    std::list<std::string>::iterator lru_it;  // position in lru_
  };

  /// Moves `key` to the most-recently-used position.
  void Touch(const std::string& key, Entry* entry) MCIRBM_REQUIRES(mu_);
  /// Inserts/replaces `key` and evicts past capacity.
  void InsertLocked(const std::string& key,
                    std::shared_ptr<const api::Model> model)
      MCIRBM_REQUIRES(mu_);

  const std::size_t capacity_;
  obs::Registry registry_;
  mutable Mutex mu_;
  std::list<std::string> lru_ MCIRBM_GUARDED_BY(mu_);  // front = MRU
  std::map<std::string, Entry> entries_ MCIRBM_GUARDED_BY(mu_);
};

}  // namespace mcirbm::serve

#endif  // MCIRBM_SERVE_MODEL_STORE_H_
