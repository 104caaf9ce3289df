#ifndef HLM_OBS_TIMESERIES_H_
#define HLM_OBS_TIMESERIES_H_

#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.h"

namespace hlm::obs {

/// Configuration for one TimeSeriesCollector: a bounded ring of
/// `num_buckets` delta buckets, each covering at least `bucket_width_s`
/// of wall-clock time (the nominal window is their product, e.g.
/// 64 x 1 s).
struct TimeSeriesOptions {
  double bucket_width_s = 1.0;
  size_t num_buckets = 64;
};

/// Histogram bucket-count deltas accumulated over a window. Unlike a
/// cumulative HistogramSnapshot this has no observed min/max — the
/// per-value extremes are not recoverable from counter deltas — so
/// ToSnapshot() reconstructs conservative bounds from the occupied
/// buckets (lower edge of the first non-empty bucket, upper bound of
/// the last; the overflow bucket extrapolates one log step), which is
/// exactly the accuracy the interpolated quantile scheme already
/// promises (within one bucket).
struct WindowedHistogram {
  std::vector<double> bounds;            ///< upper bucket bounds, ascending
  std::vector<long long> bucket_deltas;  ///< bounds.size() + 1 (overflow last)
  long long count = 0;
  double sum = 0.0;

  /// Adapter for obs::Quantile / SummarizePercentiles.
  HistogramSnapshot ToSnapshot() const;
};

/// Windowed view over the newest ring buckets: counter deltas (and
/// derived per-second rates) plus histogram bucket deltas for windowed
/// percentiles. Only metrics that actually moved inside the window
/// appear.
struct WindowSummary {
  double window_s = 0.0;   ///< the requested lookback
  double covered_s = 0.0;  ///< wall-clock actually covered by the deltas
  std::map<std::string, long long> counter_deltas;
  std::map<std::string, WindowedHistogram> histograms;

  /// Per-second rate of one counter over the covered span (0 when the
  /// window is empty or the counter did not move).
  double Rate(const std::string& counter) const;

  bool empty() const { return covered_s <= 0.0; }
};

/// Pull-driven ring of periodic MetricsSnapshot deltas — the substrate
/// behind /statusz's "windowed" section and hlm_statusz top. No background
/// thread: callers (the serve watcher loop, the /statusz and /metricsz
/// handlers, or a test driving synthetic timestamps) call Record() with
/// a monotonic `now_s` and the current cumulative snapshot. Record()
/// no-ops until at least bucket_width_s has elapsed since the previous
/// record, so over-eager callers cannot shrink the buckets; irregular
/// callers simply produce wider buckets, and every bucket remembers the
/// exact span it covers so windowed rates stay honest.
///
/// Driven manually the collector is fully deterministic: the same
/// sequence of (now_s, snapshot) calls produces the same summaries.
class TimeSeriesCollector {
 public:
  explicit TimeSeriesCollector(TimeSeriesOptions options = {});
  TimeSeriesCollector(const TimeSeriesCollector&) = delete;
  TimeSeriesCollector& operator=(const TimeSeriesCollector&) = delete;

  /// The process-wide collector the serve stack ticks and /statusz
  /// renders (default options).
  static TimeSeriesCollector& Global();

  /// Cheap pre-check: would Record(now_s, ...) accept a delta? Callers
  /// use it to skip the registry snapshot on ticks that would no-op
  /// anyway. Racy by design — Record() re-checks under the lock.
  bool ShouldRecord(double now_s) const;

  /// Records the delta between `snapshot` and the previously recorded
  /// cumulative snapshot into a new ring bucket. The first call only
  /// establishes the baseline. Returns true when a delta bucket was
  /// admitted. A counter or histogram that went backwards (registry
  /// reset) restarts from zero: its current cumulative value counts as
  /// the delta.
  bool Record(double now_s, const MetricsSnapshot& snapshot);

  /// Merges every bucket whose span ends inside [now_s - window_s,
  /// now_s] into one summary. covered_s is the wall-clock those buckets
  /// actually span, so rates divide by real time, not by the nominal
  /// window.
  WindowSummary Summarize(double now_s, double window_s) const;

  /// Drops the ring and the baseline (test isolation).
  void Clear();

  const TimeSeriesOptions& options() const { return options_; }

 private:
  struct CumulativeHistogram {
    std::vector<double> bounds;
    std::vector<long long> bucket_counts;
    long long count = 0;
    double sum = 0.0;
  };
  struct Bucket {
    double start_s = 0.0;
    double end_s = 0.0;
    std::map<std::string, long long> counter_deltas;
    std::map<std::string, WindowedHistogram> histogram_deltas;
  };

  TimeSeriesOptions options_;
  mutable std::mutex mu_;
  bool has_base_ = false;
  double last_s_ = 0.0;
  std::map<std::string, long long> last_counters_;
  std::map<std::string, CumulativeHistogram> last_histograms_;
  std::deque<Bucket> ring_;
};

}  // namespace hlm::obs

#endif  // HLM_OBS_TIMESERIES_H_
