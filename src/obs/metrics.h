#ifndef HLM_OBS_METRICS_H_
#define HLM_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace hlm::obs {

/// Naming convention for every metric in the process:
///   hlm.<subsystem>.<metric>[_<unit>]
/// e.g. hlm.lda.gibbs_sweep_seconds, hlm.lstm.steps_total,
/// hlm.recsys.window_score_seconds. Counters end in _total, timing
/// histograms in _seconds. See DESIGN.md "Observability".

/// Monotonically increasing event count. Lock-free; safe to increment
/// from any thread inside hot loops.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(long long delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

/// Instantaneous value: Set is last-write-wins (e.g. current
/// log-likelihood); Adjust moves a level that several threads share
/// (e.g. open connections).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Adjust(double delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of one histogram's state.
struct HistogramSnapshot {
  std::vector<double> bounds;             ///< upper bucket bounds, ascending
  std::vector<long long> bucket_counts;   ///< bounds.size() + 1 (overflow last)
  long long count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0
  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Fixed-bucket histogram. A value lands in the first bucket whose upper
/// bound is >= the value; values above every bound land in the overflow
/// bucket. All mutation is lock-free (relaxed atomics + CAS for the
/// floating-point aggregates), so Observe is cheap enough for per-sweep
/// and per-step call sites.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  long long count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  HistogramSnapshot Snapshot() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<long long>[]> buckets_;  // bounds_.size() + 1
  std::atomic<long long> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// `count` log-spaced upper bounds starting at `start`, each `factor`
/// apart. The default latency bounds cover 10 microseconds .. ~5 minutes.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count);
/// The one shared bucket layout for every `_seconds` histogram in the
/// process. Call sites must not hand-write their own timing bounds:
/// identical layouts are what make percentile exports and baseline
/// comparisons line up across subsystems.
const std::vector<double>& DefaultLatencyBounds();

/// Point-in-time copy of every metric in a registry, exportable as JSON
/// (machine-readable, the format behind BENCH_*.json) or aligned text.
/// Both exports derive p50/p90/p99 for every histogram (interpolated,
/// see obs/percentiles.h), so each `_seconds` histogram reads as a
/// latency distribution rather than a bucket dump.
struct MetricsSnapshot {
  /// Free-form run context (threads, host cores, bench phase timings...)
  /// emitted as a "meta" JSON section so consumers can interpret the
  /// numeric sections without out-of-band knowledge.
  std::map<std::string, std::string> meta;
  std::map<std::string, long long> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  std::string ToJson() const;
  std::string ToText() const;

  /// Parses a JSON document produced by ToJson (through obs::JsonValue).
  /// DataLoss on malformed JSON, an unknown section, or a value of the
  /// wrong type or range (counts must be integers that fit an int64).
  static Result<MetricsSnapshot> FromJson(const std::string& json);
};

/// Named metric registry. Get* registers on first use and returns a
/// stable pointer; callers cache the pointer outside their hot loop.
/// Registration takes a mutex, metric mutation never does.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every library call site records into.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Attaches a run-context string that every Snapshot carries in its
  /// meta section (last write wins).
  void SetMeta(const std::string& name, const std::string& value);
  /// Returns the existing histogram if `name` is already registered
  /// (the bounds argument is then ignored).
  Histogram* GetHistogram(
      const std::string& name,
      const std::vector<double>& bounds = DefaultLatencyBounds());

  MetricsSnapshot Snapshot() const;

  /// Drops every registered metric. Invalidates previously returned
  /// pointers; meant for test isolation, not production code.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> meta_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII wall-clock timer: records elapsed seconds into a histogram on
/// destruction (or at Stop). A null histogram disables it.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() { Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records now instead of at scope exit; returns elapsed seconds.
  /// Subsequent destruction records nothing.
  double Stop() {
    if (histogram_ == nullptr) return 0.0;
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    histogram_->Observe(elapsed.count());
    histogram_ = nullptr;
    return elapsed.count();
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hlm::obs

#endif  // HLM_OBS_METRICS_H_
