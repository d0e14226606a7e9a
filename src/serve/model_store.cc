#include "serve/model_store.h"

#include <algorithm>
#include <utility>

#include "util/timer.h"

namespace mcirbm::serve {

ModelStore::ModelStore(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

void ModelStore::Touch(const std::string& key, Entry* entry) {
  lru_.erase(entry->lru_it);
  lru_.push_front(key);
  entry->lru_it = lru_.begin();
}

void ModelStore::InsertLocked(const std::string& key,
                              std::shared_ptr<const api::Model> model) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.model = std::move(model);
    Touch(key, &it->second);
    return;
  }
  lru_.push_front(key);
  entries_[key] = Entry{std::move(model), lru_.begin()};
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    registry_.counter("store_evictions_total").Increment();
  }
}

StatusOr<std::shared_ptr<const api::Model>> ModelStore::Get(
    const std::string& key, obs::TraceContext* trace) {
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      registry_.counter("store_hits_total").Increment();
      Touch(key, &it->second);
      return it->second.model;
    }
    registry_.counter("store_misses_total").Increment();
  }
  // Load outside the lock: a slow disk read must not block cache hits.
  // Two threads may race here for the same key; both loads succeed and
  // the re-check below converges everyone on one cached instance.
  const std::int64_t started = MonotonicMicros();
  auto loaded = api::Model::LoadShared(key);
  if (!loaded.ok()) return loaded.status();
  const std::int64_t finished = MonotonicMicros();
  registry_.histogram("store_load_micros", key)
      .Record(static_cast<double>(finished - started));
  if (trace != nullptr) {
    trace->AddSpan("load", started, finished - started, key);
  }
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    Touch(key, &it->second);
    return it->second.model;
  }
  InsertLocked(key, loaded.value());
  return std::move(loaded).value();
}

std::shared_ptr<const api::Model> ModelStore::Put(const std::string& key,
                                                  api::Model model) {
  auto shared = std::make_shared<const api::Model>(std::move(model));
  MutexLock lock(mu_);
  InsertLocked(key, shared);
  return shared;
}

Status ModelStore::Reload(const std::string& key, obs::TraceContext* trace) {
  const std::int64_t started = MonotonicMicros();
  auto loaded = api::Model::LoadShared(key);
  if (!loaded.ok()) return loaded.status();
  const std::int64_t finished = MonotonicMicros();
  registry_.histogram("store_reload_micros", key)
      .Record(static_cast<double>(finished - started));
  if (trace != nullptr) {
    trace->AddSpan("reload", started, finished - started, key);
  }
  MutexLock lock(mu_);
  InsertLocked(key, std::move(loaded).value());
  registry_.counter("store_reloads_total").Increment();
  return Status::Ok();
}

bool ModelStore::Evict(const std::string& key) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  return true;
}

std::size_t ModelStore::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace mcirbm::serve
