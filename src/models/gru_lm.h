#ifndef HLM_MODELS_GRU_LM_H_
#define HLM_MODELS_GRU_LM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "models/model.h"

namespace hlm::models {

/// Configuration of the GRU language model (Cho et al. / Chung et al.,
/// the paper's §3.4 alternative recurrent unit: "a simpler version of
/// LSTMs ... [architectures] can be better for some datasets, but do not
/// outperform LSTM in general"). Single recurrent layer; the extension
/// bench compares it against the LSTM on the same corpus.
struct GruConfig {
  int hidden_size = 100;   // embedding size == hidden units
  double learning_rate = 1e-3;
  int epochs = 14;
  double grad_clip = 5.0;
  uint64_t seed = 77;
};

/// GRU language model over product sequences: embedding -> one GRU layer
/// -> softmax, trained per-sequence with Adam + BPTT. Deliberately the
/// simple sibling of LstmLanguageModel (single layer, no dropout, batch
/// of one) — enough to test the paper's GRU-vs-LSTM claim.
class GruLanguageModel final : public ConditionalScorer {
 public:
  GruLanguageModel(int vocab_size, GruConfig config);
  ~GruLanguageModel();  // out-of-line: OptState is incomplete here

  GruLanguageModel(const GruLanguageModel&) = delete;
  GruLanguageModel& operator=(const GruLanguageModel&) = delete;

  /// Trains for config.epochs passes over `sequences`.
  void Train(const std::vector<TokenSequence>& sequences);

  /// Held-out perplexity, one forward pass per sequence.
  double Perplexity(const std::vector<TokenSequence>& sequences) const;

  std::vector<double> NextProductDistribution(
      const TokenSequence& history) const override;

  int vocab_size() const override { return vocab_size_; }
  std::string name() const override {
    return "gru-1x" + std::to_string(config_.hidden_size);
  }

  long long NumParameters() const;

 private:
  struct Step;

  /// Forward over one sequence; fills `steps` when non-null and returns
  /// the total target log-probability.
  double ForwardSequence(const TokenSequence& sequence,
                         std::vector<Step>* steps) const;
  void BackwardSequence(const TokenSequence& sequence,
                        const std::vector<Step>& steps);
  void ApplyUpdate();

  int vocab_size_;
  GruConfig config_;
  mutable Rng rng_;

  // Parameters: embedding (V+1 rows, BOS last), gate weights packed
  // [z r n] along the 3H axis, recurrent weights likewise, bias, output.
  Matrix embedding_;             // (V+1) x H
  Matrix wx_;                    // H x 3H
  Matrix wh_;                    // H x 3H
  std::vector<double> bias_;     // 3H
  Matrix w_out_;                 // H x V
  std::vector<double> b_out_;    // V

  // Gradients (zeroed per sequence batch).
  Matrix d_embedding_, d_wx_, d_wh_, d_w_out_;
  std::vector<double> d_bias_, d_b_out_;

  struct OptState;
  std::unique_ptr<OptState> opt_;
  long long global_step_ = 0;
};

}  // namespace hlm::models

#endif  // HLM_MODELS_GRU_LM_H_
