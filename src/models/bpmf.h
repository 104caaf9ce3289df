#ifndef HLM_MODELS_BPMF_H_
#define HLM_MODELS_BPMF_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "math/matrix.h"

namespace hlm::models {

/// Bayesian Probabilistic Matrix Factorization (Salakhutdinov & Mnih,
/// ICML 2008), the matrix-factorization comparator of §5.2. Factors U
/// (companies x rank) and V (products x rank) carry Gaussian priors whose
/// mean/precision get Normal-Wishart hyperpriors; inference is Gibbs
/// sampling; predictions average u_i . v_j over post-burn-in samples,
/// clipped to the [0,1] rating range (the paper's binary "ranking"
/// transformation).
struct BpmfConfig {
  int rank = 8;
  double obs_precision = 2.0;  // alpha, precision of the rating noise
  int burn_in = 20;
  int samples = 40;
  double beta0 = 2.0;          // Normal-Wishart strength
  uint64_t seed = 4321;
};

/// One observed rating cell.
struct RatingTriplet {
  int row = 0;
  int col = 0;
  double rating = 0.0;
};

class BpmfModel {
 public:
  explicit BpmfModel(BpmfConfig config);

  /// Trains on sparse observed ratings (the triplet interface of typical
  /// BPMF implementations, including the paper's [28]). The paper's
  /// binary "ranking transformation" naturally yields *only* rating-1
  /// triplets for owned products -- the root of the degeneracy in
  /// Figs. 5/6: trained on all-ones, the posterior mean predicts ~1
  /// everywhere.
  Status TrainSparse(const std::vector<RatingTriplet>& observed, int rows,
                     int cols);

  /// Convenience: trains on a fully observed dense matrix (every cell a
  /// triplet), the setting of the planted-structure tests.
  Status Train(const std::vector<std::vector<double>>& ratings);

  bool trained() const { return trained_; }
  int num_rows() const { return static_cast<int>(scores_.rows()); }
  int num_cols() const { return static_cast<int>(scores_.cols()); }

  /// Posterior-mean predicted score for (company, product), in [0,1].
  double PredictScore(int row, int col) const;

  /// Full predicted score matrix.
  const Matrix& scores() const { return scores_; }

  /// All predicted scores flattened (for Fig. 5's boxplot).
  std::vector<double> AllScores() const;

 private:
  BpmfConfig config_;
  bool trained_ = false;
  Matrix scores_;  // averaged predictions, N x M
};

}  // namespace hlm::models

#endif  // HLM_MODELS_BPMF_H_
