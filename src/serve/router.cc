#include "serve/router.h"

#include <algorithm>
#include <utility>

namespace mcirbm::serve {

namespace {

/// FNV-1a, chosen over std::hash for a routing function that is
/// deterministic across standard libraries and process runs (std::hash
/// makes no such promise, and replica assignment should be stable for
/// capacity planning).
std::uint64_t Fnv1a(const std::string& key) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Pin-table size that triggers a sweep of idle entries. Generous: the
/// table holds one entry per distinct key seen since the last sweep.
constexpr std::size_t kMaxIdleAssignments = 1024;

/// Ready future carrying an error, for keys the store cannot resolve.
template <typename T>
std::future<StatusOr<T>> FailedFuture(Status status) {
  std::promise<StatusOr<T>> promise;
  promise.set_value(std::move(status));
  return promise.get_future();
}

}  // namespace

Router::Router(const RouterConfig& config)
    : routing_(config.routing), store_(config.store_capacity) {
  if (config.max_inflight_requests > 0) {
    admission_ =
        std::make_shared<AdmissionController>(config.max_inflight_requests);
  }
  BatcherConfig batcher = config.batcher;
  batcher.admission = admission_;
  const std::size_t replicas = std::max<std::size_t>(1, config.replicas);
  batchers_.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    batchers_.push_back(std::make_unique<MicroBatcher>(batcher));
  }
}

Router::~Router() { Shutdown(); }

std::size_t Router::ReplicaFor(const std::string& key) const {
  return static_cast<std::size_t>(Fnv1a(key) % batchers_.size());
}

std::size_t Router::PickReplica(const std::string& key) {
  if (routing_ == RoutingMode::kKeyHash || batchers_.size() == 1) {
    return ReplicaFor(key);
  }
  MutexLock lock(routing_mu_);
  // A key with live load (requests queued, sealed, or executing) on its
  // assigned replica is pinned: moving it would split one model's
  // traffic across batchers and defeat coalescing.
  const auto it = assignments_.find(key);
  if (it != assignments_.end() &&
      batchers_[it->second]->key_load(key) > 0) {
    return it->second;
  }
  // Idle key: route to the least-loaded replica right now. Ties break
  // toward the key-hash replica (determinism when nothing is loaded),
  // then the lowest index.
  std::size_t best = ReplicaFor(key);
  std::size_t best_load = batchers_[best]->load();
  for (std::size_t r = 0; r < batchers_.size(); ++r) {
    const std::size_t load = batchers_[r]->load();
    if (load < best_load) {
      best = r;
      best_load = load;
    }
  }
  if (assignments_.size() >= kMaxIdleAssignments) {
    // Drop idle pins so the table tracks live keys, not key history.
    for (auto sweep = assignments_.begin(); sweep != assignments_.end();) {
      if (batchers_[sweep->second]->key_load(sweep->first) == 0) {
        sweep = assignments_.erase(sweep);
      } else {
        ++sweep;
      }
    }
  }
  assignments_[key] = best;
  return best;
}

std::size_t Router::RouteFor(const std::string& key) {
  return PickReplica(key);
}

std::future<StatusOr<linalg::Matrix>> Router::Submit(
    const std::string& model_key, linalg::Matrix rows,
    std::shared_ptr<obs::TraceContext> trace) {
  MicroBatcher& batcher = *batchers_[PickReplica(model_key)];
  auto model = store_.Get(model_key, trace.get());
  if (!model.ok()) return FailedFuture<linalg::Matrix>(model.status());
  return batcher.SubmitTransform(std::move(model).value(), model_key,
                                 std::move(rows), std::move(trace));
}

std::future<StatusOr<api::EvalResult>> Router::SubmitEvaluate(
    const std::string& model_key, linalg::Matrix rows,
    std::vector<int> labels, api::EvalOptions options,
    std::shared_ptr<obs::TraceContext> trace) {
  MicroBatcher& batcher = *batchers_[PickReplica(model_key)];
  auto model = store_.Get(model_key, trace.get());
  if (!model.ok()) return FailedFuture<api::EvalResult>(model.status());
  return batcher.SubmitEvaluate(std::move(model).value(), model_key,
                                std::move(rows), std::move(labels), options,
                                std::move(trace));
}

Status Router::Reload(const std::string& model_key,
                      obs::TraceContext* trace) {
  return store_.Reload(model_key, trace);
}

std::uint64_t Router::inflight_requests() const {
  return admission_ == nullptr ? 0 : admission_->inflight();
}

void Router::Shutdown() {
  for (const auto& batcher : batchers_) batcher->Shutdown();
}

obs::MetricsSnapshot Router::metrics_snapshot() const {
  obs::MetricsSnapshot merged;
  for (const auto& batcher : batchers_) {
    merged.Merge(batcher->metrics_snapshot());
  }
  // The store is shared: fold its registry in once, not per replica.
  merged.Merge(store_.metrics_snapshot());
  merged.gauges[{"serve_replicas", ""}] =
      static_cast<double>(batchers_.size());
  merged.gauges[{"serve_inflight_requests", ""}] =
      static_cast<double>(inflight_requests());
  return merged;
}

}  // namespace mcirbm::serve
