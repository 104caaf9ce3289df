#ifndef HLM_MODELS_LDA_H_
#define HLM_MODELS_LDA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "models/model.h"

namespace hlm::models {

/// Configuration of the collapsed-Gibbs LDA trainer.
struct LdaConfig {
  int num_topics = 3;

  /// Symmetric Dirichlet priors: document-topic (alpha) and topic-word
  /// (beta).
  double alpha = 0.1;
  double beta = 0.05;

  /// Gibbs schedule: burn-in sweeps, then `post_burn_in_samples` samples
  /// taken every `sample_lag` sweeps and averaged into phi.
  int burn_in_iterations = 120;
  int post_burn_in_samples = 16;
  int sample_lag = 2;

  /// Fold-in schedule for held-out documents.
  int inference_burn_in = 20;
  int inference_samples = 30;

  uint64_t seed = 1234;
};

/// Latent Dirichlet Allocation (Blei et al. 2003) trained by collapsed
/// Gibbs sampling over company "documents" whose words are owned product
/// categories. Supports the paper's two input modes: raw binary (each
/// owned category is one unit-weight token) and TF-IDF (tokens carry
/// fractional weights), cf. Fig. 2.
class LdaModel final : public ConditionalScorer {
 public:
  LdaModel(int vocab_size, LdaConfig config);

  /// Trains on unit-weight documents (binary / BOW input mode).
  Status Train(const std::vector<TokenSequence>& documents);

  /// Trains with per-token weights (TF-IDF input mode); weights must be
  /// positive and shaped like `documents`.
  Status TrainWeighted(const std::vector<TokenSequence>& documents,
                       const std::vector<std::vector<double>>& weights);

  int num_topics() const { return config_.num_topics; }
  int vocab_size() const override { return vocab_size_; }
  std::string name() const override {
    return "lda" + std::to_string(config_.num_topics);
  }

  bool trained() const { return trained_; }

  /// phi[t][w] = P(word w | topic t), averaged over post-burn-in samples.
  const std::vector<std::vector<double>>& topic_word() const { return phi_; }

  /// Infers a document's topic mixture theta by Gibbs fold-in against the
  /// trained phi. Deterministic given the document and model seed.
  std::vector<double> InferTopicMixture(const TokenSequence& document) const;

  /// Batched fold-in, parallel over documents. Each document's Gibbs
  /// chain is seeded from (model seed, document) alone, so the result is
  /// bit-identical to calling InferTopicMixture in a loop, at any thread
  /// count.
  std::vector<std::vector<double>> InferTopicMixtures(
      const std::vector<TokenSequence>& documents) const;

  /// Plug-in held-out perplexity: fold in theta per test document, then
  /// score every token as sum_t theta_t phi_t(w). (gensim-style bound;
  /// the estimator behind Fig. 2 / Table 1.)
  double Perplexity(const std::vector<TokenSequence>& documents) const;

  /// Document-completion perplexity: theta inferred from a random half
  /// of each document, the other half scored. Unlike the plug-in bound
  /// this penalizes excess topics (theta from few tokens gets noisy), so
  /// it exposes the overfitting tail of Fig. 2.
  double PerplexityCompletion(
      const std::vector<TokenSequence>& documents) const;

  /// Sequential predictive perplexity: every token scored by
  /// NextProductDistribution given its preceding history (theta from the
  /// prefix only, owned categories excluded). This is the estimator that
  /// compares all models on the same footing as LSTM/n-grams, and the
  /// one Table 1 / Fig. 2 report.
  double PerplexitySequential(
      const std::vector<TokenSequence>& documents) const;

  /// Wallach et al. left-to-right estimator with `particles` particles;
  /// bench_table1_min_perplexity compares it with the other estimators.
  double PerplexityLeftToRight(const std::vector<TokenSequence>& documents,
                               int particles) const;

  /// P(next product | owned products) = sum_t theta_t phi_t, with theta
  /// folded in from the owned set. The recommendation adapter of Fig. 3.
  std::vector<double> NextProductDistribution(
      const TokenSequence& history) const override;

  /// Product embeddings for Fig. 8/9: embedding of word w is the
  /// normalized topic profile P(topic | w) (V rows of num_topics dims).
  std::vector<std::vector<double>> ProductEmbeddings() const;

  /// Fatal-checks the trained state: every phi row must be a finite
  /// probability distribution (HLM_CHECK_FINITE / HLM_CHECK_PROB with
  /// file:line diagnostics). Called at the end of training; callers that
  /// deserialize models from untrusted files can invoke it to turn silent
  /// NaN/garbage into an immediate abort instead of corrupt figures.
  void CheckInvariants() const;

  /// Persists the trained model (config + phi) as a small text file.
  Status SaveToFile(const std::string& path) const;

  /// Restores a model saved by SaveToFile.
  static Result<LdaModel> LoadFromFile(const std::string& path);

  /// Number of free parameters (nt + nt*M, as counted in the paper §5).
  long long NumParameters() const {
    return config_.num_topics +
           static_cast<long long>(config_.num_topics) * vocab_size_;
  }

 private:
  // Test-only state access: tests/check_test.cc poisons phi with NaN to
  // prove CheckInvariants catches a corrupted topic distribution.
  friend class LdaModelTestPeer;

  Status TrainInternal(const std::vector<TokenSequence>& documents,
                       const std::vector<std::vector<double>>* weights);

  /// Shared driver of every held-out estimator: maps per_document(d) ->
  /// (log-prob sum, token count) over documents in parallel and reduces
  /// the accumulator strictly in document order. Each document must
  /// derive all randomness from (model seed, document content), which is
  /// what makes the estimators deterministic under parallelism.
  double PerplexityOverDocuments(
      size_t num_documents,
      const std::function<std::pair<double, long long>(size_t)>&
          per_document) const;

  /// Plug-in token scoring shared by the fold-in estimators:
  /// sum_w ln max(theta . phi[:, w], 1e-12) over `tokens`.
  std::pair<double, long long> ScoreTokens(const std::vector<double>& theta,
                                           const TokenSequence& tokens) const;

  /// Rebuilds phi_wm_ from phi_; call whenever phi_ changes.
  void BuildWordMajorPhi();

  int vocab_size_;
  LdaConfig config_;
  bool trained_ = false;
  // Averaged topic-word distribution, row-normalized.
  std::vector<std::vector<double>> phi_;
  // Word-major copy of phi_ (phi_wm_[w * num_topics + t] = phi_[t][w]):
  // the Gibbs fold-in and token scorers read all topics of one word per
  // step, and the contiguous layout is what lets them call the simd
  // kernels instead of striding across phi_ rows.
  std::vector<double> phi_wm_;
};

}  // namespace hlm::models

#endif  // HLM_MODELS_LDA_H_
