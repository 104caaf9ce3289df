#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "corpus/month.h"
#include "math/simd/kernels.h"
#include "models/chh.h"
#include "models/lda.h"
#include "models/lstm_lm.h"
#include "obs/events.h"
#include "obs/flight_recorder.h"

namespace hlm::bench {

namespace {

// Output paths captured by MakeEnv; written once at process exit so
// every harness gets machine-readable output without per-bench plumbing.
std::string g_metrics_out_path;  // NOLINT(runtime/string)
std::string g_trace_out_path;    // NOLINT(runtime/string)
std::string g_events_out_path;   // NOLINT(runtime/string)

void WriteObservabilityOutputs() {
  if (!g_metrics_out_path.empty()) {
    // Fold the per-phase resource profile into the meta section so the
    // snapshot carries CPU/RSS cost next to the walltime breakdown.
    obs::ResourceProfiler::Global().AttachTo(&obs::MetricsRegistry::Global());
    obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
    // Surface each bench phase's total wall time in the meta header so
    // JSON consumers get the per-phase breakdown without digging through
    // histogram buckets.
    for (const auto& [name, histogram] : snapshot.histograms) {
      const std::string prefix = "hlm.bench.";
      const std::string suffix = "_seconds";
      if (name.size() > prefix.size() + suffix.size() &&
          name.compare(0, prefix.size(), prefix) == 0 &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        std::string phase = name.substr(
            prefix.size(), name.size() - prefix.size() - suffix.size());
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "%.6f", histogram.sum);
        snapshot.meta["walltime." + phase + "_seconds"] = buffer;
      }
    }
    std::ofstream out(g_metrics_out_path);
    if (out) out << snapshot.ToJson();
    if (!out) {
      std::fprintf(stderr, "WARNING: failed to write metrics to %s\n",
                   g_metrics_out_path.c_str());
    } else {
      std::fprintf(stderr, "metrics written to %s\n",
                   g_metrics_out_path.c_str());
    }
  }
  if (!g_trace_out_path.empty()) {
    Status status =
        obs::TraceRecorder::Global().WriteChromeTrace(g_trace_out_path);
    if (!status.ok()) {
      std::fprintf(stderr, "WARNING: failed to write trace to %s: %s\n",
                   g_trace_out_path.c_str(), status.ToString().c_str());
    } else {
      std::fprintf(stderr, "trace written to %s (load in chrome://tracing)\n",
                   g_trace_out_path.c_str());
    }
  }
  if (!g_events_out_path.empty()) {
    Status status = obs::EventLog::Global().WriteJsonl(g_events_out_path);
    if (!status.ok()) {
      std::fprintf(stderr, "WARNING: failed to write events to %s: %s\n",
                   g_events_out_path.c_str(), status.ToString().c_str());
    } else {
      std::fprintf(stderr, "events written to %s (one JSON object per line)\n",
                   g_events_out_path.c_str());
    }
  }
}

}  // namespace

ScopedPhase::ScopedPhase(const std::string& name)
    : resources_(name),
      span_(name,
            obs::MetricsRegistry::Global().GetHistogram(
                "hlm.bench." + name + "_seconds"),
            "bench") {}

BenchEnv MakeEnv(int argc, char** argv, FlagSet* flags,
                 long long default_companies) {
  long long companies = default_companies;
  long long seed = 42;
  long long threads = 0;
  std::string metrics_out;
  std::string trace_out;
  std::string events_out;
  std::string log_level;
  std::string simd_mode;
  long long event_sample_every = 1;
  flags->AddInt64("companies", &companies, "corpus size");
  flags->AddInt64("seed", &seed, "generator seed");
  flags->AddInt64("threads", &threads,
                  "worker threads for parallel regions (0 = HLM_THREADS env "
                  "or all hardware cores); results are identical at any "
                  "value");
  flags->AddString("metrics_out", &metrics_out,
                   "write a metrics-snapshot JSON here at exit");
  flags->AddString("trace_out", &trace_out,
                   "write a chrome://tracing JSON here at exit");
  flags->AddString("events_out", &events_out,
                   "write the structured wide-event log (JSONL) here at "
                   "exit");
  flags->AddInt64("event_sample_every", &event_sample_every,
                  "keep one event in N per event name (1 = keep all)");
  flags->AddString("log_level", &log_level,
                   "minimum log level: debug, info, warning, error");
  flags->AddString("simd", &simd_mode,
                   "kernel dispatch path: auto, off, or avx2 (empty = "
                   "HLM_SIMD env, then auto); metric values are identical "
                   "on every path");
  Status status = flags->Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags->Usage().c_str());
    std::exit(2);
  }
  if (!log_level.empty()) {
    std::string lowered = ToLower(log_level);
    if (lowered == "debug") {
      SetLogLevel(LogLevel::kDebug);
    } else if (lowered == "info") {
      SetLogLevel(LogLevel::kInfo);
    } else if (lowered == "warning" || lowered == "warn") {
      SetLogLevel(LogLevel::kWarning);
    } else if (lowered == "error") {
      SetLogLevel(LogLevel::kError);
    } else {
      std::fprintf(stderr, "unknown --log_level: %s\n%s", log_level.c_str(),
                   flags->Usage().c_str());
      std::exit(2);
    }
  }
  if (event_sample_every > 1) {
    obs::EventLog::Global().SetSampleEvery(
        static_cast<uint32_t>(event_sample_every));
  }
  // Pin the kernel dispatch path before any kernel runs: an explicit
  // --simd wins over the HLM_SIMD env var; with neither, the first
  // kernel call resolves the path from the environment anyway.
  if (!simd_mode.empty()) {
    Result<simd::SimdMode> mode = simd::ParseSimdMode(simd_mode);
    if (!mode.ok()) {
      std::fprintf(stderr, "bad --simd: %s\n%s",
                   mode.status().ToString().c_str(), flags->Usage().c_str());
      std::exit(2);
    }
    Status simd_status = simd::SetSimdMode(*mode);
    if (!simd_status.ok()) {
      std::fprintf(stderr, "--simd=%s rejected: %s\n", simd_mode.c_str(),
                   simd_status.ToString().c_str());
      std::exit(2);
    }
  } else {
    simd::InitFromEnv();
  }
  if (!metrics_out.empty() || !trace_out.empty() || !events_out.empty()) {
    g_metrics_out_path = metrics_out;
    g_trace_out_path = trace_out;
    g_events_out_path = events_out;
    if (!trace_out.empty()) obs::TraceRecorder::Global().Enable();
    std::atexit(WriteObservabilityOutputs);
  }
  // Arm the always-on pieces: the main thread's trace lane name and the
  // flight-recorder crash dump (an HLM_CHECK failure in any harness now
  // leaves hlm-crash-<run_id>.json next to the process).
  obs::SetCurrentThreadName("hlm-main");
  obs::InstallCrashHandler();
  if (threads > 0) SetNumThreads(static_cast<int>(threads));
  // One deterministic id per (harness, seed, companies, threads)
  // configuration: reruns of the same config share it, so metrics,
  // trace, and bench JSON from one run are joinable offline.
  std::string harness = argc > 0 && argv[0] != nullptr ? argv[0] : "bench";
  size_t slash = harness.find_last_of('/');
  if (slash != std::string::npos) harness = harness.substr(slash + 1);
  const std::string run_id = obs::ComputeRunId(
      {harness, std::to_string(seed), std::to_string(companies),
       std::to_string(NumThreads())});
  obs::TraceRecorder::Global().SetRunId(run_id);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.SetMeta("run_id", run_id);
  metrics.SetMeta("harness", harness);
  metrics.GetGauge("hlm.bench.companies")
      ->Set(static_cast<double>(companies));
  metrics.GetGauge("hlm.bench.seed")->Set(static_cast<double>(seed));
  metrics.GetGauge("hlm.bench.threads")
      ->Set(static_cast<double>(NumThreads()));
  metrics.SetMeta("threads", std::to_string(NumThreads()));
  metrics.SetMeta("host_cores",  // hlm-lint: allow(no-raw-thread)
                  std::to_string(std::thread::hardware_concurrency()));
  metrics.SetMeta("seed", std::to_string(seed));
  metrics.SetMeta("companies", std::to_string(companies));
  metrics.SetMeta("simd.requested", simd_mode.empty() ? "env" : simd_mode);
  metrics.SetMeta("simd.active_path", simd::ActivePathName());
  metrics.SetMeta("simd.avx2_available",
                  simd::Avx2Available() ? "1" : "0");

  ScopedPhase make_env_phase("make_env");
  corpus::GeneratorConfig config;
  config.num_companies = static_cast<int>(companies);
  config.seed = static_cast<uint64_t>(seed);
  BenchEnv env{corpus::SyntheticHgGenerator(config).Generate(),
               {}, corpus::Corpus(corpus::ProductTaxonomy::Default()),
               corpus::Corpus(corpus::ProductTaxonomy::Default()),
               corpus::Corpus(corpus::ProductTaxonomy::Default()),
               {}, {}, {}, {}};
  Rng split_rng(7);
  env.split = env.world.corpus.Split(0.7, 0.1, &split_rng);
  env.train = env.world.corpus.Subset(env.split.train);
  env.valid = env.world.corpus.Subset(env.split.valid);
  env.test = env.world.corpus.Subset(env.split.test);
  env.train_seqs = env.train.Sequences();
  env.valid_seqs = env.valid.Sequences();
  env.test_seqs = env.test.Sequences();
  env.train_seqs_pre2013 =
      TruncatedSequences(env.train, corpus::MakeMonth(2013, 1));
  return env;
}

std::vector<models::TokenSequence> TruncatedSequences(
    const corpus::Corpus& corpus, corpus::Month cutoff) {
  std::vector<models::TokenSequence> sequences;
  sequences.reserve(corpus.num_companies());
  for (const corpus::CompanyRecord& record : corpus.records()) {
    auto sequence = record.install_base.Before(cutoff).Sequence();
    if (!sequence.empty()) sequences.push_back(std::move(sequence));
  }
  return sequences;
}

void PrintBanner(const std::string& experiment,
                 const std::string& paper_reference, const BenchEnv& env) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("reproduces: %s\n", paper_reference.c_str());
  std::printf("corpus: %d synthetic companies, %d product categories\n",
              env.world.corpus.num_companies(),
              env.world.corpus.num_categories());
  std::printf("split: %zu train / %zu valid / %zu test\n",
              env.split.train.size(), env.split.valid.size(),
              env.split.test.size());
  std::printf("==============================================================\n");
}

TrainedRecommenders TrainRecommenders(const BenchEnv& env, int lstm_epochs) {
  const int vocab = env.world.corpus.num_categories();
  TrainedRecommenders out;

  {
    ScopedPhase phase("train_lda");
    models::LdaConfig lda_config;
    lda_config.num_topics = 4;
    auto lda = std::make_unique<models::LdaModel>(vocab, lda_config);
    HLM_CHECK_OK(lda->Train(env.train_seqs_pre2013));
    out.lda = std::move(lda);
  }

  {
    ScopedPhase phase("train_lstm");
    models::LstmConfig lstm_config;
    lstm_config.hidden_size = 100;
    lstm_config.num_layers = 1;
    lstm_config.epochs = lstm_epochs;
    auto lstm =
        std::make_unique<models::LstmLanguageModel>(vocab, lstm_config);
    lstm->Train(env.train_seqs_pre2013, env.valid_seqs);
    out.lstm = std::move(lstm);
  }

  {
    ScopedPhase phase("train_chh");
    models::ChhConfig chh_config;
    chh_config.context_depth = 2;  // chosen from the bigram/trigram tests
    auto chh = std::make_unique<models::ConditionalHeavyHitters>(vocab,
                                                                 chh_config);
    chh->Train(env.train_seqs_pre2013);
    out.chh = std::move(chh);
  }
  return out;
}

}  // namespace hlm::bench
