// batch_100k: the paper's reproduction pipeline at 100k companies, timed
// call by call from outside the libraries.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "common/parallel.h"
#include "corpus/month.h"
#include "math/rng.h"
#include "models/bpmf.h"
#include "models/chh.h"
#include "models/lda.h"
#include "models/lstm_lm.h"
#include "recsys/evaluation.h"
#include "repr/representation.h"
#include "serve/registry.h"

namespace hlm::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupRepeats = 3;  // corpus set-ups before the pipeline
constexpr int kRounds = 8;        // load / set-up rounds after it
constexpr int kQueryChecks = 200;  // probe queries compared to the trainer's model

/// The pipeline outputs the correctness gate compares exactly.
struct BatchOutputs {
  double lda_perplexity = 0.0;
  double lda_best_f1 = 0.0;
  double chh_best_f1 = 0.0;
  double lstm_perplexity = 0.0;
  double bpmf_mean_score = 0.0;
  uint64_t repr_fnv = 0;

  std::string ToLine(uint64_t seed) const {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%llu %.17g %.17g %.17g %.17g %.17g %016llx",
                  static_cast<unsigned long long>(seed), lda_perplexity,
                  lda_best_f1, chh_best_f1, lstm_perplexity, bpmf_mean_score,
                  static_cast<unsigned long long>(repr_fnv));
    return buffer;
  }
};

double BestF1(const std::vector<recsys::ThresholdEvaluation>& evaluations) {
  double best = 0.0;
  for (const recsys::ThresholdEvaluation& eval : evaluations) {
    best = std::max(best, eval.mean_f1);
  }
  return best;
}

}  // namespace

uint64_t ReprChecksum(const std::vector<std::vector<double>>& rows) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::vector<double>& row : rows) {
    hash = Fnv1a(row.data(), row.size() * sizeof(double), hash);
  }
  return hash;
}

void RunBatch(const Options& options, RunResult* result) {
  SetNumThreads(kBatchThreads);
  Tracer tracer(options.trace);
  std::map<std::string, double>& m = result->metrics;

  // Set-up: corpus generation plus the sequence splits, repeated here and
  // in the rounds after the pipeline; the last world built here is the
  // one the pipeline uses.
  World world;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setups.push_back(BuildWorld(options.seed, &tracer, &world));
  }
  const corpus::Corpus& corpus = world.generated->corpus;
  const int vocab = corpus.num_categories();

  const fs::path dir = fs::path(options.work_dir) / "batch-snapshot";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string manifest = (dir / "MANIFEST").string();

  const long long sweeps0 = CounterValue("hlm.lda.sweeps_total");
  const long long lstm_tokens0 = CounterValue("hlm.lstm.tokens_total");
  const long long bpmf_rounds0 = CounterValue("hlm.bpmf.rounds_total");
  const long long scored0 = CounterValue("hlm.recsys.companies_scored_total");
  const long long regions0 = CounterValue("hlm.parallel.regions_total");
  const long long tasks0 = CounterValue("hlm.parallel.tasks_total");

  BatchOutputs out;
  models::LdaConfig lda_config;
  lda_config.num_topics = 4;
  models::LdaModel lda(vocab, lda_config);
  std::vector<std::vector<double>> rows;
  Result<serve::ModelRegistry> loaded = Status::Internal("not loaded");
  double lda_train_s = 0.0, lstm_train_s = 0.0, eval_s = 0.0;
  long long calls = 0;
  auto check = [&](const Status& status, const char* what) {
    ++calls;
    if (!status.ok()) {
      ++result->failed;
      result->Fail(std::string(what) + ": " + status.ToString());
    }
  };

  // Query probe: single-threaded recommend / topic fold-in calls on the
  // LDA model, one slice after every pipeline stage once the model is
  // trained, so the latency sample spans the whole pipeline. Slices are
  // excluded from pipeline_s; qps and percentiles are taken per slice
  // and reported as their medians.
  std::vector<double> latencies, slice_qps, slice_p50, slice_p90;
  double probe_s = 0.0;
  Rng probe_rng = Rng(options.seed).ForkAt(11);
  auto draw_prefix = [&world](Rng& rng) {
    const models::TokenSequence& history =
        world.histories[rng.NextBounded(world.histories.size())];
    return models::TokenSequence(
        history.begin(), history.begin() + 1 + rng.NextBounded(history.size()));
  };
  auto stage = [&](const char* name, const auto& fn) {
    const double seconds = tracer.Time(name, fn);
    if (!lda.trained()) return seconds;
    std::vector<double> slice;
    const double slice_s = tracer.Time("batch.query_probe", [&] {
      const Clock::time_point slice_start = Clock::now();
      for (long long i = 0; SecondsSince(slice_start) < options.seconds / 40.0;
           ++i) {
        const models::TokenSequence prefix = draw_prefix(probe_rng);
        const Clock::time_point start = Clock::now();
        std::vector<double> answer = i % 2 == 0
                                         ? lda.NextProductDistribution(prefix)
                                         : lda.InferTopicMixture(prefix);
        slice.push_back(SecondsSince(start));
      }
    });
    probe_s += slice_s;
    slice_qps.push_back(static_cast<double>(slice.size()) / slice_s);
    slice_p50.push_back(Percentile(slice, 0.50));
    slice_p90.push_back(Percentile(slice, 0.90));
    latencies.insert(latencies.end(), slice.begin(), slice.end());
    return seconds;
  };

  const double pipeline_s = tracer.Time("batch.pipeline", [&] {
    lda_train_s = stage("models.lda.train", [&] {
      check(lda.Train(world.train_pre2013), "models.lda.train");
    });
    stage("models.lda.perplexity", [&] {
      out.lda_perplexity = lda.Perplexity(world.test);
    });
    ++calls;

    models::ChhConfig chh_config;
    chh_config.context_depth = 2;
    models::ConditionalHeavyHitters chh(vocab, chh_config);
    stage("models.chh.train", [&] { chh.Train(world.train_pre2013); });
    ++calls;

    models::LstmConfig lstm_config;
    lstm_config.hidden_size = 16;
    lstm_config.num_layers = 1;
    lstm_config.epochs = 2;
    models::LstmLanguageModel lstm(vocab, lstm_config);
    lstm_train_s = stage("models.lstm.train", [&] {
      lstm.Train(world.train_pre2013, world.valid);
    });
    stage("models.lstm.perplexity", [&] {
      out.lstm_perplexity = lstm.Perplexity(world.test);
    });
    calls += 2;

    // BPMF on the pre-2013 binary install-base matrix (rating-1 triplets
    // for owned products, the paper's ranking transformation).
    const corpus::Month cutoff = corpus::MakeMonth(2013, 1);
    std::vector<models::RatingTriplet> observed;
    int used_rows = 0;
    for (const corpus::CompanyRecord& record : corpus.records()) {
      corpus::InstallBase before = record.install_base.Before(cutoff);
      if (before.empty()) continue;
      for (int c : before.Set()) observed.push_back({used_rows, c, 1.0});
      ++used_rows;
    }
    stage("models.bpmf.train", [&] {
      models::BpmfConfig bpmf_config;
      bpmf_config.burn_in = 5;
      bpmf_config.samples = 10;
      models::BpmfModel bpmf(bpmf_config);
      check(bpmf.TrainSparse(observed, used_rows, vocab), "models.bpmf.train");
      std::vector<double> scores = bpmf.AllScores();
      double sum = 0.0;
      for (double s : scores) sum += s;
      out.bpmf_mean_score =
          scores.empty() ? 0.0 : sum / static_cast<double>(scores.size());
    });

    recsys::RecommendationEvalConfig eval_config;
    eval_config.thresholds = {0.05, 0.10, 0.15};
    eval_s += stage("recsys.eval.lda", [&] {
      out.lda_best_f1 =
          BestF1(recsys::EvaluateRecommender(lda, corpus, eval_config));
    });
    eval_s += stage("recsys.eval.chh", [&] {
      out.chh_best_f1 =
          BestF1(recsys::EvaluateRecommender(chh, corpus, eval_config));
    });
    calls += 2;

    stage("repr.lda", [&] { rows = repr::LdaRepresentation(lda, corpus); });
    ++calls;
    stage("common.snapshot.save", [&] {
      serve::ModelRegistry registry;
      check(lda.SaveToFile((dir / "lda.snap").string()), "save lda");
      check(repr::SaveRepresentation(rows, (dir / "lda_repr.snap").string()),
            "save repr");
      check(registry.Register("lda", serve::ModelKind::kLda, "lda.snap"),
            "register lda");
      check(registry.Register("lda-repr", serve::ModelKind::kRepresentation,
                              "lda_repr.snap"),
            "register repr");
      check(registry.SaveManifest(manifest), "save manifest");
    });
    stage("serve.registry.load", [&] { loaded = LoadRegistry(manifest); });
    check(loaded.status(), "serve.registry.load");
  });
  m["pipeline_s"] = pipeline_s - probe_s;
  out.repr_fnv = ReprChecksum(rows);

  const long long regions = CounterValue("hlm.parallel.regions_total") - regions0;
  const long long tasks = CounterValue("hlm.parallel.tasks_total") - tasks0;

  // Rounds after the pipeline, each one registry load and one more corpus
  // set-up. reload_s is the fastest load: a load is a fixed amount of
  // work, and on a shared host its slower samples track the neighbours'
  // load rather than the code.
  std::vector<double> loads;
  for (int round = 0; round < kRounds; ++round) {
    Result<serve::ModelRegistry> again = Status::Internal("not loaded");
    loads.push_back(tracer.Time("serve.registry.load",
                                [&] { again = LoadRegistry(manifest); }));
    check(again.status(), "serve.registry.load");
    World spare;
    setups.push_back(BuildWorld(options.seed, &tracer, &spare));
  }
  const models::LdaModel* served = loaded.ok() ? *loaded->Lda("lda") : nullptr;
  // The served model must answer exactly as the trained one does.
  Rng check_rng = Rng(options.seed).ForkAt(12);
  for (int i = 0; i < kQueryChecks && served != nullptr; ++i) {
    const models::TokenSequence prefix = draw_prefix(check_rng);
    const bool same = i % 2 == 0 ? served->NextProductDistribution(prefix) ==
                                       lda.NextProductDistribution(prefix)
                                 : served->InferTopicMixture(prefix) ==
                                       lda.InferTopicMixture(prefix);
    if (!same) {
      result->Fail("registry-loaded LDA answers differently from the trained "
                   "model for probe query " + std::to_string(i));
      break;
    }
  }
  m["setup_s"] = Median(setups);
  m["reload_s"] = *std::min_element(loads.begin(), loads.end());
  m["qps"] = Median(slice_qps);
  m["p50_ms"] = Median(slice_p50) * 1e3;
  m["p90_ms"] = Median(slice_p90) * 1e3;
  m["peak_rss_mb"] = PeakRssMb();
  result->attempted = calls + static_cast<long long>(latencies.size());

  // Correctness: exact match against the outputs recorded for this seed,
  // plus range invariants that hold at any seed.
  const std::string line = out.ToLine(options.seed);
  std::fprintf(stderr, "golden %s\n", line.c_str());
  const std::string golden = GoldenLine(options.golden_path, options.seed);
  if (golden.empty()) {
    std::fprintf(stderr, "no outputs recorded for seed %llu; range checks "
                 "only\n", static_cast<unsigned long long>(options.seed));
  } else if (golden != line) {
    result->Fail("pipeline outputs differ from the recorded ones:\n  want " +
                 golden + "\n  got  " + line);
  }
  const double max_perplexity = static_cast<double>(vocab);
  for (auto [name, value] :
       {std::pair{"LDA perplexity", out.lda_perplexity},
        std::pair{"LSTM perplexity", out.lstm_perplexity}}) {
    if (!std::isfinite(value) || value <= 1.0 || value >= max_perplexity) {
      result->Fail(std::string(name) + " out of range: " +
                   std::to_string(value));
    }
  }
  for (auto [name, value] : {std::pair{"LDA best F1", out.lda_best_f1},
                             std::pair{"CHH best F1", out.chh_best_f1},
                             std::pair{"BPMF mean score", out.bpmf_mean_score}}) {
    if (!(value > 0.0 && value <= 1.0)) {
      result->Fail(std::string(name) + " out of range: " +
                   std::to_string(value));
    }
  }
  if (static_cast<int>(rows.size()) != corpus.num_companies()) {
    result->Fail("representation has the wrong row count");
  }

  if (tracer.enabled()) {
    tracer.EmitSpanMetrics(kBatchThreads, &m);
    m["batch.unattributed_s"] = m["batch.pipeline_s"];
    const long long train_tokens = CountTokens(world.train_pre2013);
    const long long sweeps = CounterValue("hlm.lda.sweeps_total") - sweeps0;
    const long long scored =
        CounterValue("hlm.recsys.companies_scored_total") - scored0;
    m["corpus.tokens"] = static_cast<double>(train_tokens);
    m["models.lda.sweeps"] = static_cast<double>(sweeps);
    m["models.lda.token_sweeps_per_s"] =
        static_cast<double>(sweeps * train_tokens) / lda_train_s;
    m["models.lstm.tokens_per_s"] =
        static_cast<double>(CounterValue("hlm.lstm.tokens_total") -
                            lstm_tokens0) /
        lstm_train_s;
    m["models.bpmf.rounds"] =
        static_cast<double>(CounterValue("hlm.bpmf.rounds_total") - bpmf_rounds0);
    m["recsys.eval.companies_scored"] = static_cast<double>(scored);
    m["recsys.eval.companies_per_s"] = static_cast<double>(scored) / eval_s;
    m["common.parallel.regions"] = static_cast<double>(regions);
    m["common.parallel.tasks"] = static_cast<double>(tasks);
    m["models.lda.fold_in_s"] = Median(latencies);
    m["client.samples"] = static_cast<double>(latencies.size());
    m["client.p99_ms"] = Percentile(latencies, 0.99) * 1e3;
    m["client.p999_ms"] = Percentile(latencies, 0.999) * 1e3;
    FinishTrace(tracer, options, &m);
  }
  fs::remove_all(dir);
}

}  // namespace hlm::perfbench
