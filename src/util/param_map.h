// String-keyed parameter bag consumed by the clusterer factories
// (clustering::ClustererRegistry), serve request lines, the CLI's flags and
// api::ParseConfig.
//
// Values are stored as text; the typed getters parse on access and report
// malformed values through StatusOr instead of aborting, so a bad
// user-supplied parameter surfaces as a recoverable error at the API
// boundary.
#ifndef MCIRBM_UTIL_PARAM_MAP_H_
#define MCIRBM_UTIL_PARAM_MAP_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

/// Assigns the value of a StatusOr expression to `lhs`, or propagates its
/// error Status out of the enclosing Status/StatusOr-returning function.
/// Shared by the registry factories and the config parser.
#define MCIRBM_ASSIGN_OR_RETURN(lhs, expr)          \
  {                                                 \
    auto assign_or = (expr);                        \
    if (!assign_or.ok()) return assign_or.status(); \
    lhs = std::move(assign_or).value();             \
  }

namespace mcirbm {

/// Ordered key -> text-value map with Status-reporting typed accessors.
class ParamMap {
 public:
  ParamMap() = default;
  ParamMap(std::initializer_list<std::pair<const std::string, std::string>>
               entries)
      : values_(entries) {}

  /// Parses "key=value,key=value" text (used by CLI voter specs). Keys and
  /// values are trimmed; empty text yields an empty map.
  static StatusOr<ParamMap> FromText(const std::string& text);

  void Set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  bool empty() const { return values_.empty(); }
  std::size_t size() const { return values_.size(); }

  /// All keys in sorted order.
  std::vector<std::string> Keys() const;

  /// Non-OK when the map holds any key outside `allowed` — how a factory
  /// rejects parameters it does not understand.
  Status ExpectOnly(std::initializer_list<const char*> allowed) const;

  /// Typed getters: `fallback` when the key is absent, ParseError when the
  /// stored text does not parse cleanly as the requested type.
  StatusOr<std::string> GetString(const std::string& key,
                                  const std::string& fallback) const;
  StatusOr<int> GetInt(const std::string& key, int fallback) const;
  /// Full 64-bit unsigned range (seeds); rejects signs and overflow.
  StatusOr<std::uint64_t> GetUint64(const std::string& key,
                                    std::uint64_t fallback) const;
  StatusOr<double> GetDouble(const std::string& key, double fallback) const;
  /// Accepts true/false, 1/0, on/off, yes/no (case-insensitive).
  StatusOr<bool> GetBool(const std::string& key, bool fallback) const;

  /// Renders as "key=value,key=value" in key order (diagnostics).
  std::string ToString() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace mcirbm

#endif  // MCIRBM_UTIL_PARAM_MAP_H_
