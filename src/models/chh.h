#ifndef HLM_MODELS_CHH_H_
#define HLM_MODELS_CHH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "models/model.h"
#include "models/space_saving.h"

namespace hlm::models {

/// Configuration for the Conditional-Heavy-Hitters recommender.
struct ChhConfig {
  /// Depth of the conditioning context; the paper picks 2 from the
  /// bigram/trigram significance tests ("dependencies on the previous
  /// products up to the second order").
  int context_depth = 2;

  /// Minimum observations of a context before its conditional
  /// distribution is trusted; sparser contexts back off to the next
  /// shorter context (and ultimately the unigram distribution).
  long long min_context_support = 5;

  /// Additive smoothing inside a context.
  double add_k = 0.05;
};

/// Exact Conditional Heavy Hitters over product sequences (Mirylenka et
/// al., VLDBJ 2015 — the paper's reference [17]), used both as a
/// time-dependent association-rule miner and as the CHH recommender of
/// Figures 3-4. Exact variant: full (context -> successor) counts.
class ConditionalHeavyHitters final : public ConditionalScorer {
 public:
  ConditionalHeavyHitters(int vocab_size, ChhConfig config);

  /// Streams one sequence through the counter (may be called repeatedly).
  void ObserveSequence(const TokenSequence& sequence);

  /// Batch convenience over ObserveSequence.
  void Train(const std::vector<TokenSequence>& sequences);

  std::vector<double> NextProductDistribution(
      const TokenSequence& history) const override;

  int vocab_size() const override { return vocab_size_; }
  std::string name() const override { return "chh"; }

  /// One mined rule: context -> item with conditional probability
  /// (confidence) and context support.
  struct Rule {
    TokenSequence context;
    Token item = 0;
    double confidence = 0.0;
    long long support = 0;
  };

  /// All rules with confidence >= min_confidence and context support >=
  /// min_context_support, i.e. the conditional heavy hitters. Sorted by
  /// descending confidence.
  std::vector<Rule> ExtractRules(double min_confidence) const;

  long long total_transitions() const { return total_transitions_; }

  /// Packs up to 6 tokens into a 64-bit context key (shared with the
  /// approximate variant so both index contexts identically).
  static uint64_t PackContext(const Token* tokens, int length);
  static TokenSequence UnpackContext(uint64_t key);

 private:
  struct ContextCounts {
    long long total = 0;
    std::unordered_map<Token, long long> successors;
  };

  const ContextCounts* FindContext(const Token* tokens, int length) const;

  int vocab_size_;
  ChhConfig config_;
  std::unordered_map<uint64_t, ContextCounts> contexts_;
  std::vector<long long> unigram_;
  long long total_tokens_ = 0;
  long long total_transitions_ = 0;
};

/// Approximate CHH: same interface, but per-context successor
/// distributions live in bounded SpaceSaving sketches and the context
/// dictionary itself is capped, following the streaming "sparse" CHH
/// algorithms of [17]/[20]. Trades exactness for O(contexts x sketch)
/// memory; chh_test checks it against the exact variant.
class ApproximateChh final : public ConditionalScorer {
 public:
  ApproximateChh(int vocab_size, ChhConfig config, size_t max_contexts,
                 size_t sketch_capacity);

  void ObserveSequence(const TokenSequence& sequence);
  void Train(const std::vector<TokenSequence>& sequences);

  std::vector<double> NextProductDistribution(
      const TokenSequence& history) const override;

  int vocab_size() const override { return vocab_size_; }
  std::string name() const override { return "chh-approx"; }

  size_t num_contexts() const { return contexts_.size(); }

 private:
  struct SketchedContext {
    long long total = 0;
    SpaceSavingSketch sketch;
    explicit SketchedContext(size_t capacity) : sketch(capacity) {}
  };

  int vocab_size_;
  ChhConfig config_;
  size_t max_contexts_;
  size_t sketch_capacity_;
  std::unordered_map<uint64_t, SketchedContext> contexts_;
  std::vector<long long> unigram_;
  long long total_tokens_ = 0;
};

}  // namespace hlm::models

#endif  // HLM_MODELS_CHH_H_
