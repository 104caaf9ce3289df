#ifndef HLM_PERFBENCH_BENCH_H_
#define HLM_PERFBENCH_BENCH_H_

// Shared pieces of the repo benchmark (see README.md in this directory):
// run options, the result every workload fills, the span tracer that
// times calls into the hlm libraries from outside, and small /proc and
// statistics helpers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "models/model.h"
#include "serve/registry.h"

namespace hlm::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Table of pipeline outputs recorded per seed (golden_batch.tsv).
  std::string golden_path;
  /// Directory for the run's own files (snapshots, trace JSON). Must
  /// lie inside the checkout the benchmark runs from.
  std::string work_dir;
};

/// What one run reports. `metrics` holds every value the run measured
/// by name; the caller keeps the ones BENCHMARK.json lists.
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  // correctness failures, one per line

  void Fail(const std::string& message) {
    correct = false;
    errors.push_back(message);
  }
};

// ---------------------------------------------------------------------------
// Clocks, statistics, process state.

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();
/// Peak resident set of the process so far (getrusage), in MB.
double PeakRssMb();
/// Current resident set, in MB.
double CurrentRssMb();
/// A numeric field of /proc/self/status ("Threads", "VmSize" in kB...).
double ProcStatusField(const std::string& field);

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash);

// ---------------------------------------------------------------------------
// Tracer: spans recorded by the benchmark around each public call it
// makes into a layer. Always measures wall time (the caller needs it for
// end-to-end metrics); only when enabled does it keep spans, CPU time and
// a peak-RSS sample per span. Spans stay in memory until WriteChromeJson.

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  double start_s = 0.0;  // since tracer construction
  double end_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Runs fn() inside span `name` (nested under the innermost open span
  /// of the calling thread, which must be the thread that built the
  /// tracer) and returns its wall seconds.
  template <typename F>
  double Time(const std::string& name, F&& fn) {
    int id = Open(name);
    Clock::time_point start = Clock::now();
    fn();
    double seconds = SecondsSince(start);
    Close(id);
    return seconds;
  }

  /// Adds a finished span recorded elsewhere (client request spans),
  /// with times relative to this tracer's origin.
  void AddSpan(const std::string& name, double start_s, double end_s,
               int parent);
  /// Seconds from the tracer's construction to `t`.
  double Offset(Clock::time_point t) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Median self seconds, CPU utilization (CPU s / (wall x threads)) and
  /// peak RSS of every span with this name, emitted as
  /// <name>_s / _cpu_util / _rss_mb.
  void EmitSpanMetrics(int threads, std::map<std::string, double>* out) const;

  /// Seconds spent in the tracer's own bookkeeping, including the RSS
  /// sampler thread's CPU time.
  double OverheadSeconds() const;

  bool WriteChromeJson(const std::string& path) const;

 private:
  int Open(const std::string& name);
  void Close(int id);
  void SampleLoop();

  const bool enabled_;
  const Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<double> open_cpu_;
  double bookkeeping_s_ = 0.0;

  // Peak-RSS sampler: the sampler thread folds the current RSS into
  // window_peak_pages_ every few milliseconds; Open resets the window.
  std::atomic<bool> stop_{false};
  std::atomic<long long> window_peak_pages_{0};
  std::atomic<double> sampler_cpu_s_{0.0};
  std::thread sampler_;  // declared last: uses the members above
};

/// Emits trace.overhead_share (the tracer's own time over the run's wall
/// time so far) and writes the spans to
/// <work_dir>/trace-<workload>-<seed>.json.
void FinishTrace(const Tracer& tracer, const Options& options,
                 std::map<std::string, double>* metrics);

// ---------------------------------------------------------------------------
// Inputs shared by the workloads.

/// The generated corpus plus the sequence splits the pipeline trains
/// and scores on, all derived from the workload seed.
struct World {
  std::optional<corpus::GeneratedCorpus> generated;
  std::vector<models::TokenSequence> train_pre2013;  // history before 2013
  std::vector<models::TokenSequence> valid;
  std::vector<models::TokenSequence> test;
  /// Non-empty full install-base sequences of every company, the pool
  /// request token histories are drawn from.
  std::vector<models::TokenSequence> histories;
};

constexpr int kCompanies = 100000;
constexpr int kBatchThreads = 4;

/// Generates the corpus (span corpus.generate) and builds the splits
/// (span corpus.sequences). Returns the wall seconds of both together.
double BuildWorld(uint64_t seed, Tracer* tracer, World* world);

long long CountTokens(const std::vector<models::TokenSequence>& sequences);

/// Value of a counter in the global metrics registry (0 if unregistered).
long long CounterValue(const std::string& name);

/// Rewrites `path` with its own bytes so its mtime moves while its
/// content stays identical — what a snapshot refresh looks like to the
/// server's manifest watcher.
bool RepublishFile(const std::string& path);

/// FNV-1a over the raw bytes of every representation row.
uint64_t ReprChecksum(const std::vector<std::vector<double>>& rows);

/// The line recorded for `seed` in the golden table ("" when absent):
/// "<seed> <lda ppl> <lda F1> <chh F1> <lstm ppl> <bpmf mean> <repr fnv>".
std::string GoldenLine(const std::string& path, uint64_t seed);

/// Loads a snapshot manifest and materializes the "lda" and "lda-repr"
/// entries, as a serving process does at start-up.
Result<serve::ModelRegistry> LoadRegistry(const std::string& manifest);

void RunBatch(const Options& options, RunResult* result);
void RunServe(const Options& options, RunResult* result);

}  // namespace hlm::perfbench

#endif  // HLM_PERFBENCH_BENCH_H_
