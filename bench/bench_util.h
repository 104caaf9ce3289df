#ifndef HLM_BENCH_BENCH_UTIL_H_
#define HLM_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "corpus/generator.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace hlm::bench {

/// Standard experiment environment shared by every figure/table harness:
/// a synthetic HG-style corpus with the paper's 70/10/20 split, both in
/// full form and truncated to pre-protocol history (before 2013-01) for
/// the recommendation benches.
struct BenchEnv {
  corpus::GeneratedCorpus world;
  corpus::SplitIndices split;
  corpus::Corpus train;
  corpus::Corpus valid;
  corpus::Corpus test;
  std::vector<models::TokenSequence> train_seqs;
  std::vector<models::TokenSequence> valid_seqs;
  std::vector<models::TokenSequence> test_seqs;
  /// Training sequences truncated to events before 2013-01 (the
  /// recommendation protocol trains only on pre-window history).
  std::vector<models::TokenSequence> train_seqs_pre2013;
};

/// Common flags: --companies, --seed, --threads (worker threads for
/// parallel regions; 0 = HLM_THREADS env or all hardware cores — results
/// are bit-identical at any setting), plus the observability trio shared
/// by every harness: --metrics_out=<path> (write a MetricsSnapshot JSON
/// at process exit — the machine-readable data source behind
/// BENCH_*.json), --trace_out=<path> (write a chrome://tracing JSON of
/// every TraceSpan), --events_out=<path> (write the structured
/// wide-event log as JSONL), --event_sample_every=<n> (keep one event
/// in n per name), --log_level=<debug|info|warning|error>, and
/// --simd=<auto|off|avx2> (kernel dispatch path; empty defers to the
/// HLM_SIMD env var — the resolved path lands in the snapshot meta as
/// simd.requested / simd.active_path / simd.avx2_available). MakeEnv
/// also names the main thread's trace lane and arms the flight-recorder
/// crash dump (hlm-crash-<run_id>.json on HLM_CHECK failure).
/// Returns a parsed environment or aborts with usage on bad flags.
/// Additional flags may be registered on `flags` by the caller before
/// invoking; names colliding with the shared trio fail Parse loudly.
BenchEnv MakeEnv(int argc, char** argv, FlagSet* flags,
                 long long default_companies = 1200);

/// RAII bench phase marker: opens a trace span, records the phase's
/// wall time into the histogram "hlm.bench.<name>_seconds", and
/// attributes the phase's resource cost (CPU seconds, RSS growth,
/// context switches) to the global ResourceProfiler — so each
/// harness's per-phase breakdown lands in the --metrics_out JSON as
/// both a latency distribution and a "profile.<name>.*" meta block.
class ScopedPhase {
 public:
  explicit ScopedPhase(const std::string& name);

 private:
  // Declaration order matters: resources_ destructs after span_, so the
  // resource delta covers at least the traced interval.
  obs::ScopedResourcePhase resources_;
  obs::TraceSpan span_;
};

/// Sequences of a corpus truncated to history before `cutoff`.
std::vector<models::TokenSequence> TruncatedSequences(
    const corpus::Corpus& corpus, corpus::Month cutoff);

/// Prints a header banner naming the experiment and its parameters.
void PrintBanner(const std::string& experiment,
                 const std::string& paper_reference, const BenchEnv& env);

/// The three recommenders of Figs. 3-4 (LDA with few topics, LSTM, CHH),
/// trained on the pre-2013 history of the training companies (the
/// protocol conditions on everything before each sliding window; model
/// parameters are fit once on pre-protocol data, see EXPERIMENTS.md).
/// The paper deploys LDA3; our synthetic ground truth has 4 latent
/// topics, so the matched small-topic-count model is LDA4.
struct TrainedRecommenders {
  std::unique_ptr<models::ConditionalScorer> lda;
  std::unique_ptr<models::ConditionalScorer> lstm;
  std::unique_ptr<models::ConditionalScorer> chh;
};

TrainedRecommenders TrainRecommenders(const BenchEnv& env, int lstm_epochs);

}  // namespace hlm::bench

#endif  // HLM_BENCH_BENCH_UTIL_H_
