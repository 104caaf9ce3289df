#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "corpus/generator.h"
#include "corpus/month.h"
#include "corpus/product_taxonomy.h"
#include "math/rng.h"
#include "math/simd/kernels.h"
#include "math/vector_ops.h"
#include "obs/metrics.h"
#include "recsys/evaluation.h"
#include "recsys/similarity_search.h"
#include "recsys/sliding_window.h"

namespace hlm::recsys {
namespace {

using corpus::MakeMonth;

// --------------------------------------------------------- SlidingWindow

TEST(SlidingWindowTest, PaperDefaultsProduceThirteenWindows) {
  SlidingWindowProtocol protocol;
  auto windows = protocol.Windows();
  ASSERT_EQ(windows.size(), 13u);
  EXPECT_EQ(windows.front().start, MakeMonth(2013, 1));
  EXPECT_EQ(windows.front().end, MakeMonth(2014, 1));
  EXPECT_EQ(windows.back().start, MakeMonth(2015, 1));
  EXPECT_EQ(windows.back().end, MakeMonth(2016, 1));
}

TEST(SlidingWindowTest, StrideIsTwoMonths) {
  SlidingWindowProtocol protocol;
  auto windows = protocol.Windows();
  for (size_t i = 1; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].start - windows[i - 1].start, 2);
  }
}

TEST(SlidingWindowTest, CustomSpan) {
  SlidingWindowProtocol protocol;
  protocol.window_months = 6;
  protocol.num_windows = 4;
  protocol.stride_months = 3;
  auto windows = protocol.Windows();
  ASSERT_EQ(windows.size(), 4u);
  for (const auto& window : windows) {
    EXPECT_EQ(window.end - window.start, 6);
  }
}

// ------------------------------------------------------------ Evaluation

// Hand-built corpus where the ground truth is fully known:
// company 0: owns {0} since 2000, acquires {1} in 2013-06.
// company 1: owns {2} since 2000, acquires nothing.
// company 2: owns nothing before 2013 (excluded: empty history).
corpus::Corpus HandCorpus() {
  corpus::Corpus c(corpus::ProductTaxonomy::Default());
  {
    corpus::Company company;
    company.name = "A";
    company.sites.resize(1);
    company.sites[0].events.push_back({0, MakeMonth(2000, 1), 0, 1.0});
    company.sites[0].events.push_back({1, MakeMonth(2013, 6), 0, 1.0});
    c.Add(std::move(company));
  }
  {
    corpus::Company company;
    company.name = "B";
    company.sites.resize(1);
    company.sites[0].events.push_back({2, MakeMonth(2000, 1), 0, 1.0});
    c.Add(std::move(company));
  }
  {
    corpus::Company company;
    company.name = "C";
    company.sites.resize(1);
    company.sites[0].events.push_back({3, MakeMonth(2014, 6), 0, 1.0});
    c.Add(std::move(company));
  }
  return c;
}

// Scorer that always gives probability `p` to product 1 and 0 elsewhere.
class FixedScorer final : public models::ConditionalScorer {
 public:
  explicit FixedScorer(double p) : p_(p) {}
  std::vector<double> NextProductDistribution(
      const models::TokenSequence&) const override {
    std::vector<double> dist(38, 0.0);
    dist[1] = p_;
    return dist;
  }
  int vocab_size() const override { return 38; }
  std::string name() const override { return "fixed"; }

 private:
  double p_;
};

TEST(EvaluationTest, SingleWindowCountsExact) {
  corpus::Corpus c = HandCorpus();
  RecommendationEvalConfig config;
  config.protocol.first_start = MakeMonth(2013, 1);
  config.protocol.num_windows = 1;
  config.thresholds = {0.1, 0.5};

  FixedScorer scorer(0.3);
  auto evals = EvaluateRecommender(scorer, c, config);
  ASSERT_EQ(evals.size(), 2u);

  // Threshold 0.1 < 0.3: product 1 recommended to both companies with
  // history (A and B); correct only for A; relevant = 1 (A acquires 1).
  const auto& low = evals[0];
  ASSERT_EQ(low.windows.size(), 1u);
  EXPECT_EQ(low.windows[0].retrieved, 2);
  EXPECT_EQ(low.windows[0].correct, 1);
  EXPECT_EQ(low.windows[0].relevant, 1);
  EXPECT_DOUBLE_EQ(low.windows[0].precision(), 0.5);
  EXPECT_DOUBLE_EQ(low.windows[0].recall(), 1.0);

  // Threshold 0.5 > 0.3: nothing recommended.
  const auto& high = evals[1];
  EXPECT_EQ(high.windows[0].retrieved, 0);
  EXPECT_EQ(high.windows[0].correct, 0);
  EXPECT_FALSE(high.any_retrieved);
  EXPECT_DOUBLE_EQ(high.mean_recall, 0.0);
}

TEST(EvaluationTest, OwnedProductsNeverRecommended) {
  corpus::Corpus c = HandCorpus();
  RecommendationEvalConfig config;
  config.protocol.num_windows = 1;
  config.thresholds = {0.0};

  // Scorer that puts mass on product 0 (owned by company A).
  class OwnedScorer final : public models::ConditionalScorer {
   public:
    std::vector<double> NextProductDistribution(
        const models::TokenSequence&) const override {
      std::vector<double> dist(38, 0.0);
      dist[0] = 0.9;
      return dist;
    }
    int vocab_size() const override { return 38; }
    std::string name() const override { return "owned"; }
  } scorer;

  auto evals = EvaluateRecommender(scorer, c, config);
  // Company A owns 0 -> not recommended to A; B doesn't own it -> the one
  // retrieval comes from B.
  EXPECT_EQ(evals[0].windows[0].retrieved, 1);
}

TEST(EvaluationTest, RandomBaselineMatchesPaperBehaviour) {
  corpus::Corpus c = HandCorpus();
  RecommendationEvalConfig config;
  config.protocol.num_windows = 1;
  config.thresholds = {0.01, 1.0 / 38.0, 0.5};
  auto evals = EvaluateRandomBaseline(c, config);
  // Below 1/38 the random recommender retrieves *everything* unowned:
  // companies A and B each have 37 unowned products.
  EXPECT_EQ(evals[0].windows[0].retrieved, 74);
  EXPECT_DOUBLE_EQ(evals[0].mean_recall, 1.0);
  // At threshold exactly 1/38 (score > phi fails) and above: nothing.
  EXPECT_EQ(evals[1].windows[0].retrieved, 0);
  EXPECT_EQ(evals[2].windows[0].retrieved, 0);
}

TEST(EvaluationTest, ScoreMatrixPathAgreesWithScorerPath) {
  corpus::Corpus c = HandCorpus();
  RecommendationEvalConfig config;
  config.protocol.num_windows = 2;
  config.thresholds = DefaultThresholds();

  FixedScorer scorer(0.3);
  auto by_scorer = EvaluateRecommender(scorer, c, config);

  Matrix scores(c.num_companies(), c.num_categories(), 0.0);
  for (int i = 0; i < c.num_companies(); ++i) scores(i, 1) = 0.3;
  auto by_matrix = EvaluateScoreMatrix(scores, c, config);

  ASSERT_EQ(by_scorer.size(), by_matrix.size());
  for (size_t t = 0; t < by_scorer.size(); ++t) {
    ASSERT_EQ(by_scorer[t].windows.size(), by_matrix[t].windows.size());
    for (size_t w = 0; w < by_scorer[t].windows.size(); ++w) {
      EXPECT_EQ(by_scorer[t].windows[w].retrieved,
                by_matrix[t].windows[w].retrieved);
      EXPECT_EQ(by_scorer[t].windows[w].correct,
                by_matrix[t].windows[w].correct);
    }
  }
}

TEST(EvaluationTest, DefaultThresholdsMatchFig3Grid) {
  auto thresholds = DefaultThresholds();
  ASSERT_EQ(thresholds.size(), 9u);
  EXPECT_DOUBLE_EQ(thresholds.front(), 0.0);
  EXPECT_DOUBLE_EQ(thresholds.back(), 0.4);
}

TEST(EvaluationTest, ResultsIdenticalAcrossThreadCounts) {
  // The per-window company scoring fans out over the pool; the whole
  // evaluation (counts, means, CIs) must be bit-for-bit equal at any
  // thread count. Corpus generation itself is also parallel, so the two
  // generated corpora double as a determinism check for the generator.
  SetNumThreads(1);
  auto world_1 = corpus::GenerateDefaultCorpus(300, 11);
  RecommendationEvalConfig config;
  config.thresholds = {0.05, 0.15};
  FixedScorer scorer(0.1);
  auto evals_1 = EvaluateRecommender(scorer, world_1.corpus, config);

  SetNumThreads(4);
  auto world_4 = corpus::GenerateDefaultCorpus(300, 11);
  ASSERT_EQ(world_4.corpus.num_companies(), world_1.corpus.num_companies());
  for (int i = 0; i < world_1.corpus.num_companies(); ++i) {
    ASSERT_EQ(world_4.corpus.record(i).company.name,
              world_1.corpus.record(i).company.name);
  }
  auto evals_4 = EvaluateRecommender(scorer, world_4.corpus, config);
  SetNumThreads(0);

  ASSERT_EQ(evals_4.size(), evals_1.size());
  for (size_t t = 0; t < evals_1.size(); ++t) {
    EXPECT_EQ(evals_4[t].mean_precision, evals_1[t].mean_precision);
    EXPECT_EQ(evals_4[t].mean_recall, evals_1[t].mean_recall);
    EXPECT_EQ(evals_4[t].mean_f1, evals_1[t].mean_f1);
    ASSERT_EQ(evals_4[t].windows.size(), evals_1[t].windows.size());
    for (size_t w = 0; w < evals_1[t].windows.size(); ++w) {
      EXPECT_EQ(evals_4[t].windows[w].retrieved,
                evals_1[t].windows[w].retrieved);
      EXPECT_EQ(evals_4[t].windows[w].correct,
                evals_1[t].windows[w].correct);
      EXPECT_EQ(evals_4[t].windows[w].relevant,
                evals_1[t].windows[w].relevant);
    }
  }
}

// Scores on the 0.05 grid of DefaultThresholds(), so many land exactly on
// a threshold; owned products score above every threshold, so they would
// be counted if the evaluation did not skip them.
double GridScore(int product, const models::TokenSequence& history) {
  for (int owned : history) {
    if (owned == product) return 0.95;
  }
  const int step = (product + 3 * static_cast<int>(history.size()) +
                    (history.empty() ? 0 : history.front())) %
                   10;
  return 0.05 * step;
}

class GridScorer final : public models::ConditionalScorer {
 public:
  std::vector<double> NextProductDistribution(
      const models::TokenSequence& history) const override {
    std::vector<double> dist(38);
    for (int c = 0; c < 38; ++c) dist[c] = GridScore(c, history);
    return dist;
  }
  int vocab_size() const override { return 38; }
  std::string name() const override { return "grid"; }
};

struct ReferenceCounts {
  std::vector<std::vector<WindowObservation>> by_threshold;  // [t][window]
  long long companies_scored = 0;
  long long companies_skipped = 0;
};

// The protocol's definition as a plain loop: for every window, every
// company with history before the window start, and every product it
// does not own, count score > threshold.
ReferenceCounts BruteForceCounts(
    const corpus::Corpus& corpus, const RecommendationEvalConfig& config,
    const std::function<double(int, int, const models::TokenSequence&)>&
        score) {
  ReferenceCounts ref;
  ref.by_threshold.assign(config.thresholds.size(), {});
  for (const auto& window : config.protocol.Windows()) {
    std::vector<WindowObservation> counts(config.thresholds.size());
    for (int i = 0; i < corpus.num_companies(); ++i) {
      const auto& timeline = corpus.record(i).install_base.timeline();
      models::TokenSequence history;
      std::vector<int> truth;
      for (const auto& [month, category] : timeline) {
        if (month < window.start) history.push_back(category);
        if (month >= window.start && month < window.end) {
          truth.push_back(category);
        }
      }
      if (history.empty()) {
        ++ref.companies_skipped;
        continue;
      }
      ++ref.companies_scored;
      for (size_t t = 0; t < config.thresholds.size(); ++t) {
        counts[t].relevant += static_cast<long long>(truth.size());
        for (int c = 0; c < corpus.num_categories(); ++c) {
          bool owned = std::find(history.begin(), history.end(), c) !=
                       history.end();
          if (owned || !(score(i, c, history) > config.thresholds[t])) {
            continue;
          }
          ++counts[t].retrieved;
          if (std::find(truth.begin(), truth.end(), c) != truth.end()) {
            ++counts[t].correct;
          }
        }
      }
    }
    for (size_t t = 0; t < config.thresholds.size(); ++t) {
      ref.by_threshold[t].push_back(counts[t]);
    }
  }
  return ref;
}

TEST(EvaluationTest, StreamedCountsMatchBruteForceReference) {
  // A generated corpus spanning several scoring tasks, plus one company
  // first seen after every window starts and one that owns nothing:
  // both have empty history and are skipped.
  auto world = corpus::GenerateDefaultCorpus(600, 5);
  corpus::Corpus& c = world.corpus;
  {
    corpus::Company late;
    late.name = "late";
    late.sites.resize(1);
    late.sites[0].events.push_back({4, MakeMonth(2015, 6), 0, 1.0});
    c.Add(std::move(late));
    corpus::Company empty;
    empty.name = "empty";
    c.Add(std::move(empty));
  }
  RecommendationEvalConfig config;
  config.thresholds = DefaultThresholds();

  Matrix matrix(c.num_companies(), c.num_categories(), 0.0);
  for (int i = 0; i < c.num_companies(); ++i) {
    for (int p = 0; p < c.num_categories(); ++p) {
      matrix(i, p) = 0.05 * ((i + 2 * p) % 10);
    }
  }
  RecommendationEvalConfig random_config = config;
  random_config.thresholds = {0.0, 1.0 / 38.0, 0.5};

  GridScorer scorer;
  const ReferenceCounts by_scorer = BruteForceCounts(
      c, config, [](int, int p, const models::TokenSequence& history) {
        return GridScore(p, history);
      });
  const ReferenceCounts by_matrix = BruteForceCounts(
      c, config, [&matrix](int i, int p, const models::TokenSequence&) {
        return matrix(i, p);
      });
  const ReferenceCounts by_random = BruteForceCounts(
      c, random_config,
      [](int, int, const models::TokenSequence&) { return 1.0 / 38.0; });
  ASSERT_GT(by_scorer.companies_skipped, 0);

  obs::Counter* scored =
      obs::MetricsRegistry::Global().GetCounter(
          "hlm.recsys.companies_scored_total");
  auto expect_matches = [&](const ReferenceCounts& ref,
                            const std::vector<ThresholdEvaluation>& evals,
                            long long scored_delta, const char* path) {
    SCOPED_TRACE(path);
    EXPECT_EQ(scored_delta, ref.companies_scored);
    ASSERT_EQ(evals.size(), ref.by_threshold.size());
    for (size_t t = 0; t < evals.size(); ++t) {
      ASSERT_EQ(evals[t].windows.size(), ref.by_threshold[t].size());
      for (size_t w = 0; w < evals[t].windows.size(); ++w) {
        SCOPED_TRACE("threshold " + std::to_string(t) + " window " +
                     std::to_string(w));
        EXPECT_EQ(evals[t].windows[w].retrieved,
                  ref.by_threshold[t][w].retrieved);
        EXPECT_EQ(evals[t].windows[w].correct, ref.by_threshold[t][w].correct);
        EXPECT_EQ(evals[t].windows[w].relevant,
                  ref.by_threshold[t][w].relevant);
      }
    }
  };
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    SCOPED_TRACE("threads " + std::to_string(threads));
    long long before = scored->value();
    auto evals = EvaluateRecommender(scorer, c, config);
    expect_matches(by_scorer, evals, scored->value() - before, "scorer");
    before = scored->value();
    evals = EvaluateScoreMatrix(matrix, c, config);
    expect_matches(by_matrix, evals, scored->value() - before, "matrix");
    before = scored->value();
    evals = EvaluateRandomBaseline(c, random_config);
    expect_matches(by_random, evals, scored->value() - before, "random");
  }
  SetNumThreads(0);
}

TEST(EvaluationTest, ConfidenceIntervalsShrinkWithConsistentWindows) {
  auto generated = corpus::GenerateDefaultCorpus(400, 3);
  RecommendationEvalConfig config;
  config.thresholds = {0.05};
  FixedScorer scorer(0.1);
  auto evals = EvaluateRecommender(scorer, generated.corpus, config);
  ASSERT_EQ(evals.size(), 1u);
  EXPECT_EQ(evals[0].windows.size(), 13u);
  // CI must bracket the mean.
  EXPECT_LE(evals[0].recall_ci.lo, evals[0].mean_recall);
  EXPECT_GE(evals[0].recall_ci.hi, evals[0].mean_recall);
}

// ------------------------------------------------------ SimilaritySearch

TEST(SimilaritySearchTest, FindsNearestByEuclidean) {
  std::vector<std::vector<double>> reps = {
      {0.0, 0.0}, {1.0, 0.0}, {5.0, 5.0}, {0.1, 0.1}};
  SimilaritySearch search(reps, cluster::DistanceKind::kEuclidean);
  auto neighbors = search.TopK(0, 2);
  ASSERT_TRUE(neighbors.ok());
  ASSERT_EQ(neighbors->size(), 2u);
  EXPECT_EQ((*neighbors)[0].company_id, 3);
  EXPECT_EQ((*neighbors)[1].company_id, 1);
}

TEST(SimilaritySearchTest, ExcludesSelfAndHonorsFilter) {
  std::vector<std::vector<double>> reps = {
      {0.0}, {0.1}, {0.2}, {0.3}};
  SimilaritySearch search(reps, cluster::DistanceKind::kEuclidean);
  auto filtered = search.TopK(0, 10, [](int id) { return id % 2 == 0; });
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(filtered->size(), 1u);  // only company 2 passes (0 is self)
  EXPECT_EQ((*filtered)[0].company_id, 2);
}

TEST(SimilaritySearchTest, VectorQueryAndErrors) {
  std::vector<std::vector<double>> reps = {{0.0, 0.0}, {3.0, 4.0}};
  SimilaritySearch search(reps, cluster::DistanceKind::kEuclidean);
  auto hits = search.TopKForVector({3.0, 3.9}, 1);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ((*hits)[0].company_id, 1);

  EXPECT_FALSE(search.TopK(-1, 3).ok());
  EXPECT_FALSE(search.TopK(5, 3).ok());
  EXPECT_FALSE(search.TopK(0, 0).ok());
  EXPECT_FALSE(search.TopKForVector({1.0}, 1).ok());  // dim mismatch
}

// The index keeps its own flat copy of the rows: queries after the
// source matrix is destroyed (the ASan stage would flag a dangling read)
// return exactly what they returned while it was alive.
TEST(SimilaritySearchTest, OutlivesSourceMatrix) {
  std::vector<Neighbor> before;
  std::unique_ptr<SimilaritySearch> search;
  {
    std::vector<std::vector<double>> reps = {
        {0.0, 1.0}, {1.0, 0.0}, {0.9, 0.1}, {0.2, 0.8}};
    search = std::make_unique<SimilaritySearch>(
        reps, cluster::DistanceKind::kCosine);
    auto hits = search->TopK(1, 3);
    ASSERT_TRUE(hits.ok());
    before = *hits;
  }
  auto after = search->TopK(1, 3);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ((*after)[i].company_id, before[i].company_id);
    EXPECT_EQ((*after)[i].distance, before[i].distance);
  }
  EXPECT_EQ((*after)[0].company_id, 2);
  auto by_vector = search->TopKForVector({0.0, 1.0}, 1);
  ASSERT_TRUE(by_vector.ok());
  EXPECT_EQ((*by_vector)[0].company_id, 0);
}

// /v1/similar accepts k up to 1,000,000. The heap is bounded by the
// index, so a huge k returns every other row in order, and the filter
// never sees the query row.
TEST(SimilaritySearchTest, KLargerThanCorpusReturnsAll) {
  std::vector<std::vector<double>> reps = {
      {0.5}, {0.0}, {0.25}, {1.0}, {0.5}, {0.75}};
  SimilaritySearch search(reps, cluster::DistanceKind::kEuclidean);
  auto hits = search.TopK(2, 1000000, [](int id) {
    EXPECT_NE(id, 2);
    return true;
  });
  ASSERT_TRUE(hits.ok());
  std::vector<int> ids;
  for (const Neighbor& hit : *hits) ids.push_back(hit.company_id);
  // Rows 0, 1 and 4 tie at 0.25 and come out in id order.
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 4, 5, 3}));
  EXPECT_EQ((*hits)[0].distance, (*hits)[2].distance);
}

// Regression: an empty index used to skip the dimensionality check
// entirely, so a mismatched query silently returned an empty hit list.
TEST(SimilaritySearchTest, EmptyIndexRejectsNonEmptyQueries) {
  SimilaritySearch search({}, cluster::DistanceKind::kEuclidean);
  EXPECT_EQ(search.dim(), 0);
  auto hits = search.TopKForVector({1.0, 2.0}, 3);
  ASSERT_FALSE(hits.ok());
  EXPECT_NE(hits.status().message().find("dimensionality"),
            std::string::npos);
  // The zero-dimensional query matches the empty index: OK, no hits.
  auto empty_query = search.TopKForVector({}, 3);
  ASSERT_TRUE(empty_query.ok());
  EXPECT_TRUE(empty_query->empty());
}

// Regression: ragged matrices were never validated, so queries computed
// distances over rows of different widths.
// The batched cosine block scan (tiled simd::ScoreBlock over the
// flattened matrix with construction-time norm caching) must agree with
// per-row CosineDistance exactly, including across tile boundaries and
// for zero-norm rows (distance 1 by convention).
TEST(SimilaritySearchTest, BatchedCosineMatchesPerRowDistance) {
  Rng rng(77);
  const int n = 300;  // > 2 tiles of 128
  const int d = 9;
  std::vector<std::vector<double>> reps(n, std::vector<double>(d));
  for (auto& row : reps) {
    for (double& v : row) v = 2.0 * rng.NextDouble() - 1.0;
  }
  reps[0].assign(d, 0.0);    // zero-norm row inside the first tile
  reps[200].assign(d, 0.0);  // and one in a later tile
  SimilaritySearch search(reps, cluster::DistanceKind::kCosine);

  std::vector<double> query = reps[7];
  auto hits = search.TopKForVector(query, n);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), static_cast<size_t>(n));
  for (const Neighbor& hit : *hits) {
    EXPECT_EQ(hit.distance, CosineDistance(query, reps[hit.company_id]))
        << "company " << hit.company_id;
  }

  // Zero-norm rows (and a zero-norm query) score distance exactly 1.
  auto zero_hits = search.TopKForVector(std::vector<double>(d, 0.0), n);
  ASSERT_TRUE(zero_hits.ok());
  for (const Neighbor& hit : *zero_hits) {
    EXPECT_EQ(hit.distance, 1.0);
  }
}

TEST(SimilaritySearchTest, RaggedMatrixPoisonsAllQueries) {
  std::vector<std::vector<double>> ragged = {{0.0, 0.0}, {1.0}, {2.0, 2.0}};
  SimilaritySearch search(ragged, cluster::DistanceKind::kEuclidean);
  auto by_vector = search.TopKForVector({0.0, 0.0}, 2);
  ASSERT_FALSE(by_vector.ok());
  EXPECT_NE(by_vector.status().message().find("ragged"), std::string::npos);
  // TopK routes through the same check even though row 0 itself is fine.
  EXPECT_FALSE(search.TopK(0, 2).ok());
}

// Every Status error a query returns also increments the per-code
// hlm.recsys error counters, so bad queries are visible on /statusz
// even when the caller swallows the Status.
TEST(SimilaritySearchTest, ErrorsIncrementRecsysErrorCounters) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  long long total_before =
      metrics.GetCounter("hlm.recsys.errors_total")->value();
  long long oor_before =
      metrics.GetCounter("hlm.recsys.errors.out_of_range_total")->value();
  long long invalid_before =
      metrics.GetCounter("hlm.recsys.errors.invalid_argument_total")
          ->value();

  std::vector<std::vector<double>> reps = {{0.0, 0.0}, {1.0, 1.0}};
  SimilaritySearch search(reps, cluster::DistanceKind::kEuclidean);
  EXPECT_FALSE(search.TopK(99, 2).ok());            // out_of_range
  EXPECT_FALSE(search.TopKForVector({1.0}, 2).ok());  // invalid_argument
  EXPECT_FALSE(search.TopKForVector({1.0, 2.0}, 0).ok());  // k <= 0

  EXPECT_EQ(metrics.GetCounter("hlm.recsys.errors_total")->value(),
            total_before + 3);
  EXPECT_EQ(
      metrics.GetCounter("hlm.recsys.errors.out_of_range_total")->value(),
      oor_before + 1);
  EXPECT_EQ(metrics.GetCounter("hlm.recsys.errors.invalid_argument_total")
                ->value(),
            invalid_before + 2);
  // A well-formed query leaves the error counters alone.
  ASSERT_TRUE(search.TopK(0, 1).ok());
  EXPECT_EQ(metrics.GetCounter("hlm.recsys.errors_total")->value(),
            total_before + 3);
}

// Exhaustive reference for TopK/TopKForVector: every admitted row's
// distance, fully sorted by (distance, company_id), cut to k.
std::vector<Neighbor> ReferenceTopK(
    const std::vector<std::vector<double>>& reps,
    cluster::DistanceKind kind, const std::vector<double>& query, int k,
    int exclude, const std::function<bool(int)>& filter) {
  std::vector<Neighbor> all;
  for (int i = 0; i < static_cast<int>(reps.size()); ++i) {
    if (i == exclude || (filter != nullptr && !filter(i))) continue;
    all.push_back(Neighbor{i, kind == cluster::DistanceKind::kCosine
                                  ? CosineDistance(query, reps[i])
                                  : EuclideanDistance(query, reps[i])});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.company_id < b.company_id);
  });
  all.resize(std::min<size_t>(all.size(), static_cast<size_t>(k)));
  return all;
}

void ExpectSameHits(const std::vector<Neighbor>& expected,
                    const Result<std::vector<Neighbor>>& actual,
                    const std::string& where) {
  ASSERT_TRUE(actual.ok()) << where;
  ASSERT_EQ(actual->size(), expected.size()) << where;
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ((*actual)[r].company_id, expected[r].company_id)
        << where << " rank " << r;
    EXPECT_EQ((*actual)[r].distance, expected[r].distance)
        << where << " rank " << r;
  }
}

// The bounded, distance-gated heap returns exactly the head of a full
// sort, on both kernel paths: exact ties from duplicated rows, zero-norm
// rows and queries, widths and row counts off the 4-lane and 128-row
// tiles, k from 1 past the row count, and a filter that rejects most
// rows.
TEST(SimilaritySearchTest, TopKMatchesExhaustiveSortedReference) {
  const bool was_avx2 = simd::ActivePathName() == "avx2";
  std::vector<simd::SimdMode> modes = {simd::SimdMode::kOff};
  if (simd::Avx2Available()) modes.push_back(simd::SimdMode::kAvx2);
  const std::function<bool(int)> rejects_most = [](int id) {
    return id % 7 == 3;
  };
  for (simd::SimdMode mode : modes) {
    ASSERT_TRUE(simd::SetSimdMode(mode).ok());
    for (auto [n, d] : {std::pair{2, 1}, {7, 3}, {130, 4}, {257, 5},
                        {300, 9}}) {
      Rng rng(1000 + 31 * n + d);
      std::vector<std::vector<double>> reps(n, std::vector<double>(d));
      for (int i = 0; i < n; ++i) {
        if (i % 5 == 4) {
          reps[i] = reps[i / 2];  // exact duplicate: tied distances
        } else if (i % 11 == 6) {
          reps[i].assign(d, 0.0);  // zero-norm row
        } else {
          for (double& v : reps[i]) v = rng.NextDouble();
        }
      }
      std::vector<double> random_query(d);
      for (double& v : random_query) v = 2.0 * rng.NextDouble() - 1.0;
      for (cluster::DistanceKind kind : {cluster::DistanceKind::kCosine,
                                         cluster::DistanceKind::kEuclidean}) {
        SimilaritySearch search(reps, kind);
        for (int k : {1, n - 1, n, n + 5}) {
          if (k <= 0) continue;
          for (bool filtered : {false, true}) {
            const std::function<bool(int)> f =
                filtered ? rejects_most : nullptr;
            const std::string where =
                "mode=" + simd::ActivePathName() + " n=" +
                std::to_string(n) + " d=" + std::to_string(d) +
                " cosine=" +
                std::to_string(kind == cluster::DistanceKind::kCosine) +
                " k=" + std::to_string(k) +
                " filtered=" + std::to_string(filtered);
            for (int q = 0; q < n; q += std::max(1, n / 9)) {
              ExpectSameHits(ReferenceTopK(reps, kind, reps[q], k, q, f),
                             search.TopK(q, k, f),
                             where + " query=" + std::to_string(q));
            }
            for (const std::vector<double>& query :
                 {random_query, std::vector<double>(d, 0.0), reps[n - 1]}) {
              ExpectSameHits(ReferenceTopK(reps, kind, query, k, -1, f),
                             search.TopKForVector(query, k, f),
                             where + " vector query");
            }
          }
        }
      }
    }
  }
  ASSERT_TRUE(simd::SetSimdMode(was_avx2 ? simd::SimdMode::kAuto
                                         : simd::SimdMode::kOff)
                  .ok());
}

}  // namespace
}  // namespace hlm::recsys
