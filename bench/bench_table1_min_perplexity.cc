// Reproduces Table 1: the minimum test perplexity achieved by each
// method family across its parameter settings. Paper's ranking:
//   1. LDA            8.5
//   2. LSTM          11.6
//   3. n-grams       15.5
//   4. unigram BOW   19.5
// The expected reproduction outcome is the same ranking with a clear
// LDA < LSTM < n-gram < unigram separation (absolute values shift with
// the synthetic corpus scale). A second table scores the best LDA under
// the plug-in, sequential, completion and left-to-right estimators.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "models/lda.h"
#include "models/lstm_lm.h"
#include "models/ngram.h"

int main(int argc, char** argv) {
  long long epochs = 14;
  hlm::FlagSet flags;
  flags.AddInt64("epochs", &epochs, "LSTM training epochs");
  auto env = hlm::bench::MakeEnv(argc, argv, &flags);
  hlm::bench::PrintBanner(
      "Table 1: minimum perplexity per method",
      "Table 1 -- LDA 8.5 < LSTM 11.6 < n-grams 15.5 < unigram 19.5", env);
  const int vocab = env.world.corpus.num_categories();

  // Unigram "bag of words".
  hlm::models::NGramConfig unigram_config;
  unigram_config.order = 1;
  hlm::models::NGramModel unigram(vocab, unigram_config);
  unigram.Train(env.train_seqs);
  double unigram_ppl = unigram.Perplexity(env.test_seqs);

  // Best of bigram/trigram.
  double ngram_ppl = 1e300;
  for (int order : {2, 3}) {
    hlm::models::NGramConfig config;
    config.order = order;
    hlm::models::NGramModel model(vocab, config);
    model.Train(env.train_seqs);
    ngram_ppl = std::min(ngram_ppl, model.Perplexity(env.test_seqs));
  }

  // Best LDA over the paper's low topic counts.
  double lda_ppl = 1e300;
  int lda_best_k = 0;
  std::unique_ptr<hlm::models::LdaModel> best_lda;
  for (int k : {2, 3, 4, 8}) {
    hlm::models::LdaConfig config;
    config.num_topics = k;
    auto lda = std::make_unique<hlm::models::LdaModel>(vocab, config);
    if (!lda->Train(env.train_seqs).ok()) return 1;
    double ppl = lda->PerplexitySequential(env.test_seqs);
    if (ppl < lda_ppl) {
      lda_ppl = ppl;
      lda_best_k = k;
      best_lda = std::move(lda);
    }
  }

  // Best LSTM over a representative architecture subset (the full grid is
  // bench_fig1_lstm_perplexity).
  double lstm_ppl = 1e300;
  std::string lstm_best;
  for (auto [layers, nodes] :
       {std::pair{1, 100}, std::pair{1, 200}, std::pair{2, 100}}) {
    hlm::models::LstmConfig config;
    config.hidden_size = nodes;
    config.num_layers = layers;
    config.epochs = static_cast<int>(epochs);
    hlm::models::LstmLanguageModel lstm(vocab, config);
    lstm.Train(env.train_seqs, env.valid_seqs);
    double ppl = lstm.Perplexity(env.test_seqs);
    if (ppl < lstm_ppl) {
      lstm_ppl = ppl;
      lstm_best = lstm.name();
    }
  }

  struct Row {
    std::string name;
    double ppl;
    double paper;
  };
  std::vector<Row> rows = {
      {"LDA (best k=" + std::to_string(lda_best_k) + ")", lda_ppl, 8.5},
      {"LSTM (best " + lstm_best + ")", lstm_ppl, 11.6},
      {"N-grams (best of bi/tri)", ngram_ppl, 15.5},
      {"Unigram 'bag of words'", unigram_ppl, 19.5},
  };
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.ppl < b.ppl; });

  std::printf("\n%-4s | %-28s | %-10s | %-10s\n", "rank", "method",
              "min ppl", "paper");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-4zu | %-28s | %-10s | %-10s\n", i + 1,
                rows[i].name.c_str(),
                hlm::FormatDouble(rows[i].ppl, 2).c_str(),
                hlm::FormatDouble(rows[i].paper, 1).c_str());
  }
  bool ordering_holds = rows[0].paper == 8.5 && rows[1].paper == 11.6 &&
                        rows[2].paper == 15.5 && rows[3].paper == 19.5;
  std::printf("\npaper ordering %s\n",
              ordering_holds ? "REPRODUCED" : "NOT reproduced");

  // The same best LDA under each implemented held-out estimator
  // (EXPERIMENTS.md protocol note 4): the table above reports the
  // sequential one, which scores every token from its prefix alone.
  const std::pair<const char*, double> estimators[] = {
      {"plug-in (Perplexity)", best_lda->Perplexity(env.test_seqs)},
      {"sequential (Table 1)", lda_ppl},
      {"completion", best_lda->PerplexityCompletion(env.test_seqs)},
      {"left-to-right, 20 particles",
       best_lda->PerplexityLeftToRight(env.test_seqs, 20)},
  };
  std::printf("\nLDA k=%d test perplexity by estimator\n", lda_best_k);
  std::printf("%-28s | %-10s\n", "estimator", "ppl");
  for (const auto& [name, ppl] : estimators) {
    std::printf("%-28s | %-10s\n", name, hlm::FormatDouble(ppl, 2).c_str());
  }
  return ordering_holds ? 0 : 1;
}
