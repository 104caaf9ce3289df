#include "obs/metrics.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>

#include "common/check.h"
#include "obs/errors.h"
#include "obs/json.h"
#include "obs/percentiles.h"

namespace hlm::obs {

namespace {

// CAS loops for the floating-point aggregates (std::atomic<double>
// fetch_add/min/max are not portable enough to rely on).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

std::string FormatNumber(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  HLM_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  HLM_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
  buckets_ = std::make_unique<std::atomic<long long>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.bucket_counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snapshot.bucket_counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.min = snapshot.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  snapshot.max = snapshot.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  return snapshot;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count) {
  HLM_CHECK_GT(start, 0.0);
  HLM_CHECK_GT(factor, 1.0);
  HLM_CHECK_GT(count, 0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

const std::vector<double>& DefaultLatencyBounds() {
  // 1e-5 s .. ~335 s in 25 x2 steps: covers a Gibbs token update through
  // a full multi-minute training run.
  static const std::vector<double> kBuckets =
      ExponentialBuckets(1e-5, 2.0, 25);
  return kBuckets;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Referencing the installer here pulls errors.o (and its static
  // installer) into every binary that touches metrics, so common-layer
  // TrackError reporting is live before any snapshot I/O runs.
  EnsureErrorSinkInstalled();
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

void MetricsRegistry::SetMeta(const std::string& name,
                              const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_[name] = value;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.meta = meta_;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Snapshot();
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  meta_.clear();
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"meta\": {";
  bool first = true;
  for (const auto& [name, value] : meta) {
    out << (first ? "\n" : ",\n") << "    " << JsonQuote(name) << ": "
        << JsonQuote(value);
    first = false;
  }
  out << (first ? "},\n" : "\n  },\n");
  out << "  \"counters\": {";
  first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "\n" : ",\n") << "    " << JsonQuote(name) << ": "
        << value;
    first = false;
  }
  out << (first ? "},\n" : "\n  },\n");
  out << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out << (first ? "\n" : ",\n") << "    " << JsonQuote(name) << ": "
        << FormatNumber(value);
    first = false;
  }
  out << (first ? "},\n" : "\n  },\n");
  out << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out << (first ? "\n" : ",\n") << "    " << JsonQuote(name) << ": {\n";
    out << "      \"count\": " << h.count << ",\n";
    out << "      \"sum\": " << FormatNumber(h.sum) << ",\n";
    out << "      \"min\": " << FormatNumber(h.min) << ",\n";
    out << "      \"max\": " << FormatNumber(h.max) << ",\n";
    out << "      \"mean\": " << FormatNumber(h.Mean()) << ",\n";
    PercentileSummary pct = SummarizePercentiles(h);
    out << "      \"p50\": " << FormatNumber(pct.p50) << ",\n";
    out << "      \"p90\": " << FormatNumber(pct.p90) << ",\n";
    out << "      \"p99\": " << FormatNumber(pct.p99) << ",\n";
    out << "      \"bounds\": [";
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out << ", ";
      out << FormatNumber(h.bounds[i]);
    }
    out << "],\n      \"bucket_counts\": [";
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i > 0) out << ", ";
      out << h.bucket_counts[i];
    }
    out << "]\n    }";
    first = false;
  }
  out << (first ? "}\n" : "\n  }\n") << "}\n";
  return out.str();
}

std::string MetricsSnapshot::ToText() const {
  std::ostringstream out;
  size_t width = 1;
  for (const auto& [name, _] : meta) width = std::max(width, name.size());
  for (const auto& [name, _] : counters) width = std::max(width, name.size());
  for (const auto& [name, _] : gauges) width = std::max(width, name.size());
  for (const auto& [name, _] : histograms) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, value] : meta) {
    out << name << std::string(width - name.size(), ' ') << "  meta     "
        << value << "\n";
  }
  for (const auto& [name, value] : counters) {
    out << name << std::string(width - name.size(), ' ') << "  counter  "
        << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    out << name << std::string(width - name.size(), ' ') << "  gauge    "
        << value << "\n";
  }
  for (const auto& [name, h] : histograms) {
    PercentileSummary pct = SummarizePercentiles(h);
    out << name << std::string(width - name.size(), ' ')
        << "  histo    count=" << h.count << " mean=" << h.Mean()
        << " p50=" << pct.p50 << " p90=" << pct.p90 << " p99=" << pct.p99
        << " min=" << h.min << " max=" << h.max << " sum=" << h.sum << "\n";
  }
  return out.str();
}

namespace {

Status Corrupt(const std::string& what) {
  return Status::DataLoss("metrics json: " + what);
}

Result<double> NumberOf(const JsonValue& value, const std::string& what) {
  if (value.kind() != JsonValue::Kind::kNumber) {
    return Corrupt(what + " is not a number");
  }
  return value.AsNumber();
}

Result<long long> CountOf(const JsonValue& value, const std::string& what) {
  std::optional<long long> count = value.AsInteger();
  if (!count.has_value()) return Corrupt(what + " is not an integer");
  return *count;
}

Result<HistogramSnapshot> HistogramOf(const JsonValue& fields,
                                      const std::string& name) {
  if (!fields.is_object()) return Corrupt(name + " is not an object");
  HistogramSnapshot h;
  // "mean"/"p50"/"p90"/"p99" are derived on export; ignore them.
  for (const auto& [field, value] : fields.object()) {
    const std::string what = name + "." + field;
    if (field == "count") {
      HLM_ASSIGN_OR_RETURN(h.count, CountOf(value, what));
    } else if (field == "sum") {
      HLM_ASSIGN_OR_RETURN(h.sum, NumberOf(value, what));
    } else if (field == "min") {
      HLM_ASSIGN_OR_RETURN(h.min, NumberOf(value, what));
    } else if (field == "max") {
      HLM_ASSIGN_OR_RETURN(h.max, NumberOf(value, what));
    } else if (field == "bounds" || field == "bucket_counts") {
      if (!value.is_array()) return Corrupt(what + " is not an array");
      for (const JsonValue& item : value.array()) {
        if (field == "bounds") {
          HLM_ASSIGN_OR_RETURN(double bound, NumberOf(item, what));
          h.bounds.push_back(bound);
        } else {
          HLM_ASSIGN_OR_RETURN(long long count, CountOf(item, what));
          h.bucket_counts.push_back(count);
        }
      }
    }
  }
  return h;
}

}  // namespace

Result<MetricsSnapshot> MetricsSnapshot::FromJson(const std::string& json) {
  Result<JsonValue> parsed = JsonValue::Parse(json);
  if (!parsed.ok()) return Corrupt(parsed.status().message());
  if (!parsed->is_object()) return Corrupt("document is not an object");
  MetricsSnapshot snapshot;
  for (const auto& [section, members] : parsed->object()) {
    if (section != "meta" && section != "counters" && section != "gauges" &&
        section != "histograms") {
      return Corrupt("unknown section: " + section);
    }
    if (!members.is_object()) return Corrupt(section + " is not an object");
    for (const auto& [name, value] : members.object()) {
      if (section == "meta") {
        if (value.kind() != JsonValue::Kind::kString) {
          return Corrupt("meta " + name + " is not a string");
        }
        snapshot.meta[name] = value.AsString();
      } else if (section == "counters") {
        HLM_ASSIGN_OR_RETURN(snapshot.counters[name], CountOf(value, name));
      } else if (section == "gauges") {
        HLM_ASSIGN_OR_RETURN(snapshot.gauges[name], NumberOf(value, name));
      } else {
        HLM_ASSIGN_OR_RETURN(snapshot.histograms[name],
                             HistogramOf(value, name));
      }
    }
  }
  return snapshot;
}

}  // namespace hlm::obs
