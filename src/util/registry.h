// Shared machinery for the string-keyed component registries
// (clustering::ClustererRegistry, data::DataLoaderRegistry): a mutex-guarded
// name -> std::function table with Status-reporting Register/Create and
// consistent "unknown <noun> 'x' (registered: ...)" diagnostics.
#ifndef MCIRBM_UTIL_REGISTRY_H_
#define MCIRBM_UTIL_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mcirbm {

template <typename Signature>
class NamedRegistry;

/// Name -> factory table over factories of signature `Result(Args...)`.
/// `Result` must be constructible from a Status (e.g. StatusOr<T>) so
/// lookup failures report through the same channel as factory errors.
template <typename Result, typename... Args>
class NamedRegistry<Result(Args...)> {
 public:
  using Factory = std::function<Result(Args...)>;

  /// `noun` names the component kind in diagnostics ("clusterer", ...).
  explicit NamedRegistry(std::string noun) : noun_(std::move(noun)) {}

  /// Adds a factory under `name`; InvalidArgument if the name is taken.
  Status Register(const std::string& name, Factory factory) {
    if (name.empty()) {
      return Status::InvalidArgument(noun_ + " name must be non-empty");
    }
    MutexLock lock(mutex_);
    const auto [it, inserted] = factories_.emplace(name, std::move(factory));
    if (!inserted) {
      return Status::InvalidArgument(noun_ + " '" + name +
                                     "' is already registered");
    }
    return Status::Ok();
  }

  /// Invokes the factory registered under `name`. NotFound for unknown
  /// names; factory-specific errors pass through.
  Result Create(const std::string& name, Args... args) const {
    Factory factory;
    {
      MutexLock lock(mutex_);
      const auto it = factories_.find(name);
      if (it == factories_.end()) {
        std::string known;
        for (const auto& [key, value] : factories_) {
          if (!known.empty()) known += ", ";
          known += key;
        }
        return Status::NotFound("unknown " + noun_ + " '" + name +
                                "' (registered: " + known + ")");
      }
      factory = it->second;
    }
    return factory(std::forward<Args>(args)...);
  }

  bool Contains(const std::string& name) const {
    MutexLock lock(mutex_);
    return factories_.count(name) > 0;
  }

  /// Registered names in sorted order.
  std::vector<std::string> ListRegistered() const {
    MutexLock lock(mutex_);
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) names.push_back(name);
    return names;
  }

 protected:
  /// Pre-registration hook for the subclass constructor (built-ins skip
  /// the Register name checks — they are statically well-formed). Takes
  /// the lock even though it only runs during construction: base-class
  /// members get no constructor exemption from the analysis, and the
  /// uncontended acquire is free at startup.
  void AddBuiltin(const std::string& name, Factory factory) {
    MutexLock lock(mutex_);
    factories_.emplace(name, std::move(factory));
  }

 private:
  std::string noun_;
  mutable Mutex mutex_;
  std::map<std::string, Factory> factories_ MCIRBM_GUARDED_BY(mutex_);
};

}  // namespace mcirbm

#endif  // MCIRBM_UTIL_REGISTRY_H_
