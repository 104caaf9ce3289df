#include <gtest/gtest.h>

#include <cmath>

#include "cluster/kmeans.h"
#include "cluster/silhouette.h"
#include "cluster/tsne.h"
#include "common/parallel.h"
#include "corpus/generator.h"
#include "math/rng.h"
#include "models/chh.h"
#include "models/lda.h"
#include "models/ngram.h"
#include "recsys/evaluation.h"
#include "repr/representation.h"

namespace hlm {
namespace {

// End-to-end integration tests across modules: scaled-down versions of
// the paper's experiments. They assert *shape* (orderings, separations),
// not absolute values — the per-figure benches print the full series.

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new corpus::GeneratedCorpus(
        corpus::GenerateDefaultCorpus(900, 42));
    Rng rng(7);
    split_ = new corpus::SplitIndices(world_->corpus.Split(0.7, 0.1, &rng));
    train_ = new corpus::Corpus(world_->corpus.Subset(split_->train));
    test_ = new corpus::Corpus(world_->corpus.Subset(split_->test));

    models::LdaConfig lda_config;
    lda_config.num_topics = 4;
    lda_config.burn_in_iterations = 80;
    lda_config.post_burn_in_samples = 8;
    lda_ = new models::LdaModel(38, lda_config);
    ASSERT_TRUE(lda_->Train(train_->Sequences()).ok());
  }

  static void TearDownTestSuite() {
    delete lda_;
    delete test_;
    delete train_;
    delete split_;
    delete world_;
  }

  static corpus::GeneratedCorpus* world_;
  static corpus::SplitIndices* split_;
  static corpus::Corpus* train_;
  static corpus::Corpus* test_;
  static models::LdaModel* lda_;
};

corpus::GeneratedCorpus* PipelineTest::world_ = nullptr;
corpus::SplitIndices* PipelineTest::split_ = nullptr;
corpus::Corpus* PipelineTest::train_ = nullptr;
corpus::Corpus* PipelineTest::test_ = nullptr;
models::LdaModel* PipelineTest::lda_ = nullptr;

TEST_F(PipelineTest, PerplexityOrderingLdaBeatsNgramsBeatsUnigram) {
  auto train_seqs = train_->Sequences();
  auto test_seqs = test_->Sequences();

  models::NGramConfig unigram_config;
  unigram_config.order = 1;
  models::NGramModel unigram(38, unigram_config);
  unigram.Train(train_seqs);

  models::NGramConfig bigram_config;
  bigram_config.order = 2;
  models::NGramModel bigram(38, bigram_config);
  bigram.Train(train_seqs);

  double lda_ppl = lda_->Perplexity(test_seqs);
  double bigram_ppl = bigram.Perplexity(test_seqs);
  double unigram_ppl = unigram.Perplexity(test_seqs);

  // Table 1's ordering, scaled down.
  EXPECT_LT(lda_ppl, bigram_ppl);
  EXPECT_LT(bigram_ppl, unigram_ppl);
  EXPECT_LT(lda_ppl, unigram_ppl * 0.75);
}

TEST_F(PipelineTest, LdaRepresentationIdenticalAcrossThreadCounts) {
  // Every fold-in is seeded from its own document, so the rows computed
  // in parallel equal the serial ones exactly.
  SetNumThreads(1);
  auto serial = repr::LdaRepresentation(*lda_, *train_);
  SetNumThreads(4);
  auto parallel = repr::LdaRepresentation(*lda_, *train_);
  SetNumThreads(0);
  ASSERT_EQ(serial.size(), static_cast<size_t>(train_->num_companies()));
  EXPECT_EQ(parallel, serial);
}

TEST_F(PipelineTest, LdaRepresentationClustersBetterThanRaw) {
  // Fig. 7's headline: silhouettes of LDA features dominate raw binary
  // features. Evaluate at k = 8 clusters on the training corpus.
  auto raw = repr::BinaryRepresentation(*train_);
  auto lda_rep = repr::LdaRepresentation(*lda_, *train_);

  cluster::KMeansConfig kconfig;
  kconfig.num_clusters = 8;
  kconfig.num_restarts = 2;
  auto raw_clusters = cluster::KMeans(raw, kconfig);
  auto lda_clusters = cluster::KMeans(lda_rep, kconfig);
  ASSERT_TRUE(raw_clusters.ok());
  ASSERT_TRUE(lda_clusters.ok());

  auto raw_score = cluster::SilhouetteScore(raw, raw_clusters->assignments,
                                            cluster::DistanceKind::kEuclidean,
                                            /*sample_size=*/300);
  auto lda_score = cluster::SilhouetteScore(
      lda_rep, lda_clusters->assignments,
      cluster::DistanceKind::kEuclidean, /*sample_size=*/300);
  ASSERT_TRUE(raw_score.ok());
  ASSERT_TRUE(lda_score.ok());
  EXPECT_GT(*lda_score, *raw_score + 0.15);
}

TEST_F(PipelineTest, LdaClustersAlignWithGroundTruthTopics) {
  // Majority topic purity of k-means clusters on LDA features must beat
  // the base rate by a wide margin (the dominant topic covers ~60%).
  auto lda_rep = repr::LdaRepresentation(*lda_, *train_);
  cluster::KMeansConfig kconfig;
  kconfig.num_clusters = 4;
  kconfig.num_restarts = 3;
  auto clusters = cluster::KMeans(lda_rep, kconfig);
  ASSERT_TRUE(clusters.ok());

  // Majority ground-truth topic per cluster.
  std::vector<std::vector<int>> counts(4, std::vector<int>(4, 0));
  for (int i = 0; i < train_->num_companies(); ++i) {
    int original = split_->train[i];
    counts[clusters->assignments[i]]
          [world_->truth.company_topic[original]] += 1;
  }
  int pure = 0, total = 0;
  for (int c = 0; c < 4; ++c) {
    int best = 0, sum = 0;
    for (int t = 0; t < 4; ++t) {
      best = std::max(best, counts[c][t]);
      sum += counts[c][t];
    }
    pure += best;
    total += sum;
  }
  EXPECT_GT(static_cast<double>(pure) / total, 0.75);
}

TEST_F(PipelineTest, LdaRecommenderBeatsRandomBaseline) {
  recsys::RecommendationEvalConfig config;
  config.thresholds = {0.05};

  auto lda_evals = recsys::EvaluateRecommender(*lda_, world_->corpus, config);
  auto random_evals = recsys::EvaluateRandomBaseline(world_->corpus, config);
  ASSERT_EQ(lda_evals.size(), 1u);

  // Random at phi > 1/38 retrieves nothing; compare precision where the
  // random baseline still retrieves everything (phi < 1/38).
  recsys::RecommendationEvalConfig low_config;
  low_config.thresholds = {0.01};
  auto random_low =
      recsys::EvaluateRandomBaseline(world_->corpus, low_config);

  // LDA at 0.05 must be far more precise than random-at-retrieve-all.
  EXPECT_GT(lda_evals[0].mean_precision,
            random_low[0].mean_precision * 2.0);
  // And it must actually retrieve something.
  EXPECT_TRUE(lda_evals[0].any_retrieved);
  EXPECT_GT(lda_evals[0].mean_recall, 0.1);
}

TEST_F(PipelineTest, LdaDominatesChhInThePaperThresholdRange) {
  // Fig. 3's qualitative findings in the paper's operating range
  // (phi <= 0.2): LDA's recall exceeds CHH's at every threshold, and
  // CHH pays more false positives (lower precision) for its retrievals.
  models::ChhConfig chh_config;
  models::ConditionalHeavyHitters chh(38, chh_config);
  chh.Train(train_->Sequences());

  recsys::RecommendationEvalConfig config;
  config.thresholds = {0.05, 0.10, 0.15};
  auto chh_evals = recsys::EvaluateRecommender(chh, world_->corpus, config);
  auto lda_evals = recsys::EvaluateRecommender(*lda_, world_->corpus, config);
  for (size_t i = 0; i < config.thresholds.size(); ++i) {
    EXPECT_GT(lda_evals[i].mean_recall, chh_evals[i].mean_recall)
        << "phi=" << config.thresholds[i];
    EXPECT_GE(lda_evals[i].mean_f1, chh_evals[i].mean_f1 * 0.95)
        << "phi=" << config.thresholds[i];
  }
}

TEST_F(PipelineTest, TsneOnLdaEmbeddingsKeepsTopicNeighbors) {
  // Figs. 8/9: project product embeddings; products sharing a ground
  // truth home topic should sit closer than cross-topic pairs on
  // average.
  auto embeddings = lda_->ProductEmbeddings();
  cluster::TsneConfig config;
  config.perplexity = 8.0;
  config.iterations = 400;
  auto projected = cluster::Tsne(embeddings, config);
  ASSERT_TRUE(projected.ok());

  // Home topic of each category from the ground truth (argmax phi).
  std::vector<int> home(38);
  for (int c = 0; c < 38; ++c) {
    double best = -1.0;
    for (int t = 0; t < world_->truth.num_topics; ++t) {
      if (world_->truth.topic_category[t][c] > best) {
        best = world_->truth.topic_category[t][c];
        home[c] = t;
      }
    }
  }
  double intra = 0.0, inter = 0.0;
  int intra_n = 0, inter_n = 0;
  for (int i = 0; i < 38; ++i) {
    for (int j = i + 1; j < 38; ++j) {
      double dx = (*projected)[i][0] - (*projected)[j][0];
      double dy = (*projected)[i][1] - (*projected)[j][1];
      double d = std::sqrt(dx * dx + dy * dy);
      if (home[i] == home[j]) {
        intra += d;
        ++intra_n;
      } else {
        inter += d;
        ++inter_n;
      }
    }
  }
  ASSERT_GT(intra_n, 0);
  ASSERT_GT(inter_n, 0);
  EXPECT_LT(intra / intra_n, inter / inter_n);
}

}  // namespace
}  // namespace hlm
