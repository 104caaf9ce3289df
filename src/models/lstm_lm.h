#ifndef HLM_MODELS_LSTM_LM_H_
#define HLM_MODELS_LSTM_LM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "models/lstm_cell.h"
#include "models/model.h"

namespace hlm::models {

/// Architecture and training schedule of the LSTM language model. The
/// paper sweeps Nlayers in {1,2,3} and nodes-per-layer in {10,100,200,
/// 300} ("the number of nodes per layer corresponds to the product
/// embedding size"), trains 14 epochs, and regularizes with dropout
/// (Zaremba et al.).
struct LstmConfig {
  int hidden_size = 100;     // embedding size == nodes per layer
  int num_layers = 1;
  double dropout = 0.25;     // on non-recurrent connections
  double learning_rate = 3e-3;
  int epochs = 14;
  int batch_size = 64;
  double grad_clip = 5.0;    // global-norm clipping
  /// Early stopping patience on validation perplexity; 0 disables both
  /// early stopping and best-epoch restoration (the paper's protocol
  /// trains a fixed 14 epochs).
  int patience = 0;
  uint64_t seed = 99;
};

/// LSTM language model over product sequences AS_i: embedding ->
/// num_layers LSTM -> softmax, trained with Adam + BPTT over whole
/// sequences (max length = vocabulary size, so no truncation needed).
class LstmLanguageModel final : public ConditionalScorer {
 public:
  LstmLanguageModel(int vocab_size, LstmConfig config);
  ~LstmLanguageModel();  // out-of-line: OptState is incomplete here

  LstmLanguageModel(const LstmLanguageModel&) = delete;
  LstmLanguageModel& operator=(const LstmLanguageModel&) = delete;

  struct EpochStats {
    int epoch = 0;
    double train_perplexity = 0.0;
    double valid_perplexity = 0.0;
  };

  /// Trains on `train`; monitors `valid` (may be empty) after each epoch.
  /// Keeps the parameters of the best validation epoch when early
  /// stopping triggers. Returns per-epoch statistics.
  std::vector<EpochStats> Train(const std::vector<TokenSequence>& train,
                                const std::vector<TokenSequence>& valid);

  /// Held-out perplexity (dropout disabled), one forward pass/sequence.
  double Perplexity(const std::vector<TokenSequence>& sequences) const;

  std::vector<double> NextProductDistribution(
      const TokenSequence& history) const override;

  int vocab_size() const override { return vocab_size_; }
  std::string name() const override;

  /// Input embedding rows, one per product (V x hidden_size) — the
  /// learned product embeddings discussed in [19].
  std::vector<std::vector<double>> ProductEmbeddings() const;

  /// Company embedding: top-layer hidden state after consuming the
  /// sequence (the RNN-based company representation of §4).
  std::vector<double> CompanyEmbedding(const TokenSequence& sequence) const;

  /// Trainable parameter count (the paper's capacity argument in §5).
  long long NumParameters() const;

  const LstmConfig& config() const { return config_; }

 private:
  struct BatchCache;

  /// Forward a batch; returns total log-prob of target tokens and count.
  /// When `cache` is non-null, stores everything backward needs;
  /// `train_mode` enables dropout (requires cache and rng).
  void ForwardBatch(const std::vector<const TokenSequence*>& batch,
                    bool train_mode, Rng* rng, BatchCache* cache,
                    double* total_log_prob, long long* num_tokens) const;

  void BackwardBatch(const BatchCache& cache);
  void ApplyUpdate();

  static constexpr int kBosRow = -1;  // BOS uses the extra embedding row

  int vocab_size_;
  LstmConfig config_;
  mutable Rng rng_;

  Matrix embedding_;               // (V+1) x E, last row = BOS
  std::vector<LstmCell> cells_;    // num_layers
  Matrix w_out_;                   // H x V
  std::vector<double> b_out_;      // V

  // Gradients (zeroed per batch).
  Matrix d_embedding_;
  std::vector<LstmCellGrads> d_cells_;
  Matrix d_w_out_;
  std::vector<double> d_b_out_;

  // Adam states, one per tensor.
  struct OptState;
  std::unique_ptr<OptState> opt_;
  long long global_step_ = 0;
};

}  // namespace hlm::models

#endif  // HLM_MODELS_LSTM_LM_H_
