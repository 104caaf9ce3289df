#include "recsys/evaluation.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlm::recsys {

namespace {

/// One window's retrieval counts, aligned with config.thresholds.
using WindowCounts = std::vector<WindowObservation>;

/// Companies per scoring task. Fixed rather than derived from the thread
/// count, so the task decomposition is the same at every thread count.
constexpr size_t kCompaniesPerTask = 256;

std::vector<ThresholdEvaluation> SweepThresholds(
    const std::vector<WindowCounts>& per_window,
    const RecommendationEvalConfig& config) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::TraceSpan sweep_span(
      "recsys.threshold_sweep",
      metrics.GetHistogram("hlm.recsys.threshold_sweep_seconds"));
  metrics.GetCounter("hlm.recsys.thresholds_swept_total")
      ->Increment(static_cast<long long>(config.thresholds.size()));
  std::vector<ThresholdEvaluation> evaluations;
  evaluations.reserve(config.thresholds.size());
  for (size_t t = 0; t < config.thresholds.size(); ++t) {
    ThresholdEvaluation evaluation;
    evaluation.threshold = config.thresholds[t];
    std::vector<double> precisions, recalls, f1s, retrieved, correct,
        relevant;
    for (const WindowCounts& counts : per_window) {
      const WindowObservation& obs = counts[t];
      // Retrieval arithmetic invariants behind Fig. 3's precision/recall:
      // correct hits are a subset of both the retrieved and the relevant
      // sets.
      HLM_DCHECK_LE(obs.correct, obs.retrieved);
      HLM_DCHECK_LE(obs.correct, obs.relevant);
      evaluation.windows.push_back(obs);
      precisions.push_back(obs.precision());
      recalls.push_back(obs.recall());
      f1s.push_back(obs.f1());
      retrieved.push_back(static_cast<double>(obs.retrieved));
      correct.push_back(static_cast<double>(obs.correct));
      relevant.push_back(static_cast<double>(obs.relevant));
      if (obs.retrieved > 0) evaluation.any_retrieved = true;
    }
    evaluation.mean_precision = Mean(precisions);
    evaluation.mean_recall = Mean(recalls);
    evaluation.mean_f1 = Mean(f1s);
    HLM_CHECK_PROB(evaluation.mean_precision);
    HLM_CHECK_PROB(evaluation.mean_recall);
    HLM_CHECK_PROB(evaluation.mean_f1);
    evaluation.precision_ci =
        MeanConfidenceInterval(precisions, config.ci_level);
    evaluation.recall_ci = MeanConfidenceInterval(recalls, config.ci_level);
    evaluation.f1_ci = MeanConfidenceInterval(f1s, config.ci_level);
    evaluation.mean_retrieved = Mean(retrieved);
    evaluation.mean_correct = Mean(correct);
    evaluation.mean_relevant = Mean(relevant);
    evaluation.retrieved_ci =
        MeanConfidenceInterval(retrieved, config.ci_level);
    evaluation.correct_ci = MeanConfidenceInterval(correct, config.ci_level);
    evaluations.push_back(std::move(evaluation));
  }
  return evaluations;
}

template <typename ScoreFn>
std::vector<WindowCounts> ScoreAllWindows(
    const corpus::Corpus& corpus, const RecommendationEvalConfig& config,
    const ScoreFn& score_company) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Histogram* window_seconds =
      metrics.GetHistogram("hlm.recsys.window_score_seconds");
  obs::Counter* companies_scored =
      metrics.GetCounter("hlm.recsys.companies_scored_total");
  obs::TraceSpan score_span("recsys.score_windows");
  const size_t num_companies = static_cast<size_t>(corpus.num_companies());
  std::vector<WindowCounts> per_window;
  for (const auto& window : config.protocol.Windows()) {
    obs::ScopedTimer window_timer(window_seconds);
    // Each company adds to its task's per-threshold counts as it is
    // scored, so nothing per company outlives it. Integer counts summed in
    // task order give the serial sweep's totals at any thread count.
    per_window.push_back(ParallelMapReduce(
        0, (num_companies + kCompaniesPerTask - 1) / kCompaniesPerTask,
        /*grain=*/0, WindowCounts(config.thresholds.size()),
        [&](size_t task) {
          WindowCounts counts(config.thresholds.size());
          long long scored = 0;
          const size_t end =
              std::min(num_companies, (task + 1) * kCompaniesPerTask);
          for (size_t i = task * kCompaniesPerTask; i < end; ++i) {
            const corpus::InstallBase& base = corpus.record(i).install_base;
            corpus::InstallBase history = base.Before(window.start);
            if (history.empty()) continue;  // nothing to condition on yet
            uint64_t truth = 0;  // acquired in the window, each at most once
            for (int c : base.AppearedIn(window.start, window.end)) {
              truth |= uint64_t{1} << c;
            }
            std::vector<double> dist =
                score_company(static_cast<int>(i), history);
            for (size_t t = 0; t < config.thresholds.size(); ++t) {
              counts[t].relevant += std::popcount(truth);
              for (int c = 0; c < corpus.num_categories(); ++c) {
                if (history.Contains(c)) continue;  // never re-recommend owned
                if (dist[c] > config.thresholds[t]) {
                  ++counts[t].retrieved;
                  if ((truth >> c) & 1u) ++counts[t].correct;
                }
              }
            }
            ++scored;
          }
          companies_scored->Increment(scored);
          return counts;
        },
        [](WindowCounts total, const WindowCounts& part) {
          for (size_t t = 0; t < total.size(); ++t) {
            total[t].retrieved += part[t].retrieved;
            total[t].correct += part[t].correct;
            total[t].relevant += part[t].relevant;
          }
          return total;
        }));
  }
  HLM_LOG(Debug) << "recsys scored " << per_window.size()
                 << " sliding windows over " << corpus.num_companies()
                 << " companies";
  return per_window;
}

}  // namespace

std::vector<double> DefaultThresholds() {
  std::vector<double> thresholds;
  for (int i = 0; i <= 8; ++i) thresholds.push_back(0.05 * i);
  return thresholds;
}

std::vector<ThresholdEvaluation> EvaluateRecommender(
    const models::ConditionalScorer& scorer, const corpus::Corpus& corpus,
    const RecommendationEvalConfig& config) {
  HLM_CHECK_EQ(scorer.vocab_size(), corpus.num_categories());
  auto per_window = ScoreAllWindows(
      corpus, config,
      [&scorer](int /*company*/, const corpus::InstallBase& history) {
        return scorer.NextProductDistribution(history.Sequence());
      });
  return SweepThresholds(per_window, config);
}

std::vector<ThresholdEvaluation> EvaluateScoreMatrix(
    const Matrix& scores, const corpus::Corpus& corpus,
    const RecommendationEvalConfig& config) {
  HLM_CHECK_EQ(static_cast<int>(scores.rows()), corpus.num_companies());
  HLM_CHECK_EQ(static_cast<int>(scores.cols()), corpus.num_categories());
  auto per_window = ScoreAllWindows(
      corpus, config,
      [&scores, &corpus](int company, const corpus::InstallBase&) {
        std::vector<double> dist(corpus.num_categories());
        for (int c = 0; c < corpus.num_categories(); ++c) {
          dist[c] = scores(company, c);
        }
        return dist;
      });
  return SweepThresholds(per_window, config);
}

std::vector<ThresholdEvaluation> EvaluateRandomBaseline(
    const corpus::Corpus& corpus, const RecommendationEvalConfig& config) {
  const double uniform = 1.0 / static_cast<double>(corpus.num_categories());
  auto per_window = ScoreAllWindows(
      corpus, config,
      [&corpus, uniform](int, const corpus::InstallBase&) {
        return std::vector<double>(corpus.num_categories(), uniform);
      });
  return SweepThresholds(per_window, config);
}

}  // namespace hlm::recsys
