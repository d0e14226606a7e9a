#include "obs/registry.h"

#include <sstream>

#include "util/string_util.h"

namespace mcirbm::obs {

std::string EscapeLabel(const std::string& value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (const char c : value) {
    if (c == '"' || c == '\\') escaped.push_back('\\');
    escaped.push_back(c);
  }
  return escaped;
}

namespace {

/// `name{model="label"}` — or bare `name` when the label is empty —
/// with an optional extra `quantile="q"` pair for histogram lines.
/// Label values are escaped; quantiles are literals we control.
void AppendSeries(std::ostringstream* out, const std::string& name,
                  const std::string& label,
                  const std::string& quantile = "") {
  *out << name;
  if (label.empty() && quantile.empty()) return;
  *out << '{';
  if (!label.empty()) *out << "model=\"" << EscapeLabel(label) << '"';
  if (!quantile.empty()) {
    if (!label.empty()) *out << ',';
    *out << "quantile=\"" << quantile << '"';
  }
  *out << '}';
}

/// Compact decimal: integral values print without a fractional part so
/// counters stay counters; everything else gets three decimals.
std::string FormatValue(double value) {
  if (value == static_cast<double>(static_cast<long long>(value))) {
    return std::to_string(static_cast<long long>(value));
  }
  return FormatDouble(value, 3);
}

}  // namespace

Counter& Registry::counter(const std::string& name,
                           const std::string& label) {
  MutexLock lock(mu_);
  auto& slot = counters_[{name, label}];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name, const std::string& label) {
  MutexLock lock(mu_);
  auto& slot = gauges_[{name, label}];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& label) {
  MutexLock lock(mu_);
  auto& slot = histograms_[{name, label}];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mu_);
  for (const auto& [key, counter] : counters_) {
    snap.counters[key] = counter->Value();
  }
  for (const auto& [key, gauge] : gauges_) {
    snap.gauges[key] = gauge->Value();
  }
  for (const auto& [key, histogram] : histograms_) {
    snap.histograms[key] = histogram->snapshot();
  }
  return snap;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [key, value] : other.counters) counters[key] += value;
  for (const auto& [key, value] : other.gauges) gauges[key] += value;
  for (const auto& [key, value] : other.histograms) {
    histograms[key].Merge(value);  // default-constructed on first sight
  }
}

// Keys sort by (name, label) and "" is the smallest label, so every
// label of `name` sits in one run starting at lower_bound({name, ""}).
std::uint64_t MetricsSnapshot::CounterTotal(const std::string& name) const {
  std::uint64_t total = 0;
  for (auto it = counters.lower_bound({name, ""});
       it != counters.end() && it->first.first == name; ++it) {
    total += it->second;
  }
  return total;
}

Histogram::Snapshot MetricsSnapshot::HistogramTotal(
    const std::string& name) const {
  Histogram::Snapshot total;
  for (auto it = histograms.lower_bound({name, ""});
       it != histograms.end() && it->first.first == name; ++it) {
    total.Merge(it->second);
  }
  return total;
}

std::string MetricsSnapshot::RenderText() const {
  std::ostringstream out;
  for (const auto& [key, value] : counters) {
    AppendSeries(&out, key.first, key.second);
    out << ' ' << value << '\n';
  }
  for (const auto& [key, value] : gauges) {
    AppendSeries(&out, key.first, key.second);
    out << ' ' << FormatValue(value) << '\n';
  }
  for (const auto& [key, snap] : histograms) {
    for (const char* q : {"0.5", "0.9", "0.95", "0.99"}) {
      AppendSeries(&out, key.first, key.second, q);
      out << ' ' << FormatValue(snap.Quantile(std::stod(q))) << '\n';
    }
    AppendSeries(&out, key.first + "_count", key.second);
    out << ' ' << snap.count << '\n';
    AppendSeries(&out, key.first + "_sum", key.second);
    out << ' ' << FormatValue(snap.sum) << '\n';
    AppendSeries(&out, key.first + "_min", key.second);
    out << ' ' << FormatValue(snap.min) << '\n';
    AppendSeries(&out, key.first + "_max", key.second);
    out << ' ' << FormatValue(snap.max) << '\n';
  }
  return out.str();
}

}  // namespace mcirbm::obs
