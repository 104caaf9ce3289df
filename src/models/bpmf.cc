#include "models/bpmf.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "math/mvn.h"
#include "math/rng.h"
#include "math/simd/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlm::models {

namespace {

// Hyper-parameters of one side's Gaussian prior, resampled from the
// Normal-Wishart posterior every Gibbs iteration.
struct SideState {
  Matrix mu;      // d x 1
  Matrix lambda;  // d x d
};

Status SampleHyper(const Matrix& factors, double beta0, Rng* rng,
                   SideState* state) {
  const size_t n = factors.rows();
  const size_t d = factors.cols();

  // Sufficient statistics.
  Matrix mean(d, 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) mean(j, 0) += factors(i, j);
  }
  double inv_n = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  for (size_t j = 0; j < d; ++j) mean(j, 0) *= inv_n;

  Matrix scatter(d, d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < d; ++a) {
      double da = factors(i, a) - mean(a, 0);
      for (size_t b = 0; b < d; ++b) {
        scatter(a, b) += da * (factors(i, b) - mean(b, 0));
      }
    }
  }

  // Normal-Wishart posterior with mu0 = 0, W0 = I, nu0 = d.
  double beta_star = beta0 + static_cast<double>(n);
  double nu_star = static_cast<double>(d) + static_cast<double>(n);
  Matrix w_inv = Matrix::Identity(d);  // W0^-1
  w_inv += scatter;
  double shrink = beta0 * static_cast<double>(n) / beta_star;
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < d; ++b) {
      w_inv(a, b) += shrink * mean(a, 0) * mean(b, 0);
    }
  }
  HLM_ASSIGN_OR_RETURN(Matrix w_star, SpdInverse(w_inv));
  // Symmetrize against numerical drift before the Cholesky inside the
  // Wishart sampler.
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a + 1; b < d; ++b) {
      double avg = 0.5 * (w_star(a, b) + w_star(b, a));
      w_star(a, b) = avg;
      w_star(b, a) = avg;
    }
  }
  HLM_ASSIGN_OR_RETURN(state->lambda, SampleWishart(w_star, nu_star, rng));

  Matrix mu_mean(d, 1);
  double blend = static_cast<double>(n) / beta_star;
  for (size_t j = 0; j < d; ++j) mu_mean(j, 0) = blend * mean(j, 0);
  HLM_ASSIGN_OR_RETURN(Matrix lambda_scaled_inv, SpdInverse(state->lambda));
  lambda_scaled_inv *= 1.0 / beta_star;
  HLM_ASSIGN_OR_RETURN(state->mu,
                       SampleMultivariateGaussian(mu_mean, lambda_scaled_inv,
                                                  rng));
  return Status::OK();
}

// One observed cell as seen from one side (the other side's index plus
// the rating).
struct SideObservation {
  int other = 0;
  double rating = 0.0;
};

// Samples one factor row from its Gaussian conditional given the other
// side's factors and that row's observed ratings.
Status SampleFactorRow(const std::vector<SideObservation>& row_observed,
                       const Matrix& other, const SideState& hyper,
                       const Matrix& lambda_mu, double alpha, size_t i,
                       Rng* rng, Matrix* factors) {
  const size_t d = factors->cols();
  Matrix precision = hyper.lambda;
  Matrix rhs = lambda_mu;
  for (const SideObservation& obs : row_observed) {
    const double* row = other.row(obs.other);
    // Rank-1 update: rhs += alpha r_ij f_j, precision += alpha f_j f_j^T,
    // one contiguous axpy per factor row / precision row.
    simd::Axpy(alpha * obs.rating, row, rhs.data(), d);
    for (size_t a = 0; a < d; ++a) {
      simd::Axpy(alpha * row[a], row, precision.row(a), d);
    }
  }
  HLM_ASSIGN_OR_RETURN(Matrix covariance, SpdInverse(precision));
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a + 1; b < d; ++b) {
      double avg = 0.5 * (covariance(a, b) + covariance(b, a));
      covariance(a, b) = avg;
      covariance(b, a) = avg;
    }
  }
  Matrix mean = MatMul(covariance, rhs);
  HLM_ASSIGN_OR_RETURN(Matrix sample,
                       SampleMultivariateGaussian(mean, covariance, rng));
  for (size_t a = 0; a < d; ++a) (*factors)(i, a) = sample(a, 0);
  return Status::OK();
}

// Samples every factor row of one side. Rows are conditionally
// independent given the other side and the hyper-parameters, so they
// fan out over the pool; row i draws from rng->ForkAt(i) (one Split()
// consumed from the sweep RNG per call), making the sweep bit-identical
// at any thread count.
Status SampleFactors(const std::vector<std::vector<SideObservation>>& observed,
                     const Matrix& other, const SideState& hyper,
                     double alpha, Rng* rng, Matrix* factors) {
  const size_t n = factors->rows();
  const size_t d = factors->cols();

  Matrix lambda_mu(d, 1, 0.0);
  for (size_t a = 0; a < d; ++a) {
    double sum = 0.0;
    for (size_t b = 0; b < d; ++b) sum += hyper.lambda(a, b) * hyper.mu(b, 0);
    lambda_mu(a, 0) = sum;
  }

  const Rng row_base = rng->Split();
  std::vector<Status> row_status(n);
  ParallelFor(0, n, /*grain=*/0, [&](size_t i) {
    Rng row_rng = row_base.ForkAt(i);
    row_status[i] = SampleFactorRow(observed[i], other, hyper, lambda_mu,
                                    alpha, i, &row_rng, factors);
  });
  for (const Status& status : row_status) {
    HLM_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

}  // namespace

BpmfModel::BpmfModel(BpmfConfig config) : config_(config) {
  HLM_CHECK_GT(config_.rank, 0);
  HLM_CHECK_GT(config_.obs_precision, 0.0);
}

Status BpmfModel::TrainSparse(const std::vector<RatingTriplet>& observed,
                              int rows, int cols) {
  if (rows <= 0 || cols <= 0) {
    return Status::InvalidArgument("empty ratings matrix");
  }
  if (observed.empty()) {
    return Status::InvalidArgument("no observed ratings");
  }
  std::vector<std::vector<SideObservation>> by_row(rows);
  std::vector<std::vector<SideObservation>> by_col(cols);
  for (const RatingTriplet& t : observed) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      return Status::OutOfRange("rating triplet outside the matrix");
    }
    by_row[t.row].push_back({t.col, t.rating});
    by_col[t.col].push_back({t.row, t.rating});
  }
  const size_t d = static_cast<size_t>(config_.rank);

  Rng rng(config_.seed);
  Matrix u = Matrix::RandomGaussian(rows, d, 0.1, &rng);
  Matrix v = Matrix::RandomGaussian(cols, d, 0.1, &rng);

  Matrix accumulated(rows, cols, 0.0);
  int collected = 0;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Histogram* round_seconds =
      metrics.GetHistogram("hlm.bpmf.gibbs_round_seconds");
  obs::Counter* rounds_total = metrics.GetCounter("hlm.bpmf.rounds_total");
  obs::TraceSpan train_span("bpmf.train",
                            metrics.GetHistogram("hlm.bpmf.train_seconds"));

  const int total = config_.burn_in + config_.samples;
  for (int iter = 0; iter < total; ++iter) {
    obs::ScopedTimer round_timer(round_seconds);
    rounds_total->Increment();
    SideState hyper_u, hyper_v;
    HLM_RETURN_IF_ERROR(SampleHyper(u, config_.beta0, &rng, &hyper_u));
    HLM_RETURN_IF_ERROR(SampleHyper(v, config_.beta0, &rng, &hyper_v));
    HLM_RETURN_IF_ERROR(SampleFactors(by_row, v, hyper_u,
                                      config_.obs_precision, &rng, &u));
    HLM_RETURN_IF_ERROR(SampleFactors(by_col, u, hyper_v,
                                      config_.obs_precision, &rng, &v));
    // Debug builds validate both factor matrices after every Gibbs
    // round: one non-finite entry would spread through the Normal-
    // Wishart resample into every later round.
    HLM_DCHECK(check_internal::AllFinite(u.data(), u.size()))
        << "non-finite row factors after gibbs round " << iter;
    HLM_DCHECK(check_internal::AllFinite(v.data(), v.size()))
        << "non-finite column factors after gibbs round " << iter;
    if (iter >= config_.burn_in) {
      Matrix prediction = MatMulTransposed(u, v);
      accumulated += prediction;
      ++collected;
    }
  }

  HLM_CHECK_GT(collected, 0);
  accumulated *= 1.0 / static_cast<double>(collected);
  // Posterior-mean scores must be finite before clipping: clamp would
  // pass NaN through untouched and corrupt every downstream ranking.
  HLM_CHECK(check_internal::AllFinite(accumulated.data(), accumulated.size()))
      << "non-finite BPMF posterior-mean score matrix";
  // Clip to the rating range, as BPMF implementations do.
  double score_sum = 0.0;
  for (size_t i = 0; i < accumulated.size(); ++i) {
    accumulated.data()[i] = std::clamp(accumulated.data()[i], 0.0, 1.0);
    score_sum += accumulated.data()[i];
  }
  const double mean_score =
      score_sum / static_cast<double>(accumulated.size());
  HLM_CHECK_PROB(mean_score);
  metrics.GetGauge("hlm.bpmf.mean_score")->Set(mean_score);
  scores_ = std::move(accumulated);
  trained_ = true;
  HLM_LOG(Info) << "bpmf trained: rank " << config_.rank << ", " << total
                << " gibbs rounds (" << collected
                << " collected), mean predicted score " << mean_score;
  return Status::OK();
}

Status BpmfModel::Train(const std::vector<std::vector<double>>& ratings) {
  if (ratings.empty() || ratings[0].empty()) {
    return Status::InvalidArgument("empty ratings matrix");
  }
  const size_t m = ratings[0].size();
  std::vector<RatingTriplet> observed;
  observed.reserve(ratings.size() * m);
  for (size_t i = 0; i < ratings.size(); ++i) {
    if (ratings[i].size() != m) {
      return Status::InvalidArgument("ragged ratings matrix");
    }
    for (size_t j = 0; j < m; ++j) {
      observed.push_back({static_cast<int>(i), static_cast<int>(j),
                          ratings[i][j]});
    }
  }
  return TrainSparse(observed, static_cast<int>(ratings.size()),
                     static_cast<int>(m));
}

double BpmfModel::PredictScore(int row, int col) const {
  HLM_CHECK(trained_);
  return scores_(row, col);
}

std::vector<double> BpmfModel::AllScores() const {
  HLM_CHECK(trained_);
  return std::vector<double>(scores_.data(),
                             scores_.data() + scores_.size());
}

}  // namespace hlm::models
