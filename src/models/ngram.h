#ifndef HLM_MODELS_NGRAM_H_
#define HLM_MODELS_NGRAM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "models/model.h"

namespace hlm::models {

/// Configuration of the n-gram language model over product sequences.
struct NGramConfig {
  int order = 2;           // 1 = unigram "bag of words", 2 = bigram, ...
  double add_k = 0.1;      // additive smoothing mass per vocabulary entry
  /// Interpolation with lower orders: P = w*P_order + (1-w)*P_backoff
  /// (recursively). 1.0 disables interpolation.
  double interpolation_weight = 0.75;
};

/// Count-based n-gram model of AS_i product sequences, the paper's
/// "sequential association rules" baseline (§5: bigram/trigram perplexity
/// >= 15.5, unigram 19.5). A begin-of-sequence marker pads contexts.
class NGramModel final : public ConditionalScorer {
 public:
  NGramModel(int vocab_size, NGramConfig config);

  /// Accumulates counts from training sequences. May be called more than
  /// once (counts add up).
  void Train(const std::vector<TokenSequence>& sequences);

  /// Conditional P(token | context); context uses the last order-1
  /// entries of `history` (padded with BOS).
  double ConditionalProb(const TokenSequence& history, Token token) const;

  std::vector<double> NextProductDistribution(
      const TokenSequence& history) const override;

  int vocab_size() const override { return vocab_size_; }
  std::string name() const override;

  /// Perplexity on held-out sequences.
  double Perplexity(const std::vector<TokenSequence>& sequences) const;

  /// Number of distinct contexts of the maximal order observed.
  size_t num_contexts() const { return context_counts_.size(); }

  long long total_tokens() const { return total_tokens_; }

  /// Raw joint count of an n-gram (context + token), for the
  /// significance tests; order of `ngram` must be <= config.order.
  long long NgramCount(const TokenSequence& ngram) const;

 private:
  static constexpr Token kBos = -1;

  /// Packs up to 7 tokens (plus BOS) into a 64-bit key.
  static uint64_t PackContext(const Token* tokens, int length);

  double ProbAtOrder(const Token* context, int context_len, Token token,
                     int order) const;

  int vocab_size_;
  NGramConfig config_;
  // context key (per order) -> (total count, per-token counts)
  struct ContextCounts {
    long long total = 0;
    std::unordered_map<Token, long long> token_counts;
  };
  // Index: order-1 contexts for every order in [1, config.order].
  std::unordered_map<uint64_t, ContextCounts> context_counts_;
  long long total_tokens_ = 0;
};

}  // namespace hlm::models

#endif  // HLM_MODELS_NGRAM_H_
