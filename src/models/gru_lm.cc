#include "models/gru_lm.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "math/simd/kernels.h"
#include "models/adam.h"
#include "models/perplexity.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlm::models {

namespace {

inline double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

/// One timestep's forward state (batch of one).
struct GruLanguageModel::Step {
  int input_row = 0;              // embedding row fed at this step
  std::vector<double> h_prev;     // H
  std::vector<double> z, r, n;    // H each, post-activation
  std::vector<double> uh;         // Un h_prev (pre r-gating), H
  std::vector<double> h;          // H
  std::vector<double> probs;      // V, softmax output
};

struct GruLanguageModel::OptState {
  AdamState embedding, wx, wh, bias, w_out, b_out;
  OptState(size_t e, size_t x, size_t h, size_t b, size_t wo, size_t bo)
      : embedding(e), wx(x), wh(h), bias(b), w_out(wo), b_out(bo) {}
};

GruLanguageModel::GruLanguageModel(int vocab_size, GruConfig config)
    : vocab_size_(vocab_size), config_(config), rng_(config.seed) {
  HLM_CHECK_GT(vocab_size_, 0);
  HLM_CHECK_GT(config_.hidden_size, 0);
  const int h = config_.hidden_size;
  embedding_ = Matrix::RandomUniform(vocab_size_ + 1, h, 0.08, &rng_);
  double scale_x = std::sqrt(6.0 / (h + 3.0 * h));
  wx_ = Matrix::RandomUniform(h, 3 * h, scale_x, &rng_);
  wh_ = Matrix::RandomUniform(h, 3 * h, scale_x, &rng_);
  bias_.assign(3 * h, 0.0);
  double scale_o = std::sqrt(6.0 / (h + vocab_size_));
  w_out_ = Matrix::RandomUniform(h, vocab_size_, scale_o, &rng_);
  b_out_.assign(vocab_size_, 0.0);

  d_embedding_ = Matrix(embedding_.rows(), embedding_.cols(), 0.0);
  d_wx_ = Matrix(wx_.rows(), wx_.cols(), 0.0);
  d_wh_ = Matrix(wh_.rows(), wh_.cols(), 0.0);
  d_bias_.assign(bias_.size(), 0.0);
  d_w_out_ = Matrix(w_out_.rows(), w_out_.cols(), 0.0);
  d_b_out_.assign(b_out_.size(), 0.0);
  opt_ = std::make_unique<OptState>(embedding_.size(), wx_.size(),
                                    wh_.size(), bias_.size(), w_out_.size(),
                                    b_out_.size());
}

GruLanguageModel::~GruLanguageModel() = default;

double GruLanguageModel::ForwardSequence(const TokenSequence& sequence,
                                         std::vector<Step>* steps) const {
  const int h = config_.hidden_size;
  const size_t h3 = static_cast<size_t>(3 * h);
  std::vector<double> hidden(h, 0.0);
  double log_prob = 0.0;
  if (steps != nullptr) steps->resize(sequence.size());

  // Scratch reused across timesteps: packed [z r n] pre-activations from
  // the input (xw, bias included) and from the recurrent state (hw). A
  // caller that runs sequences in a loop also reuses `steps` (and the
  // scoring-only Step below), so steady-state forward allocates nothing.
  std::vector<double> xw(h3);
  std::vector<double> hw(h3);
  Step scoring_step;

  // Size every step buffer up front so the timestep loop below never
  // grows a vector (resize-to-same-size inside the loop was a no-op in
  // steady state but a reallocation on the first sequence).
  auto size_step = [&](Step& step) {
    step.z.resize(h);
    step.r.resize(h);
    step.n.resize(h);
    step.uh.resize(h);
    step.h.resize(h);
  };
  if (steps != nullptr) {
    for (Step& step : *steps) size_step(step);
  } else {
    size_step(scoring_step);
  }

  // hlm-lint: hot-path begin (GRU forward step: per-token recurrence +
  // softmax; every buffer is sized above or reuses capacity)
  for (size_t t = 0; t < sequence.size(); ++t) {
    Step& step = steps != nullptr ? (*steps)[t] : scoring_step;
    step.input_row =
        t == 0 ? vocab_size_ : sequence[t - 1];  // BOS row = vocab_size_
    step.h_prev = hidden;
    const double* x = embedding_.row(step.input_row);

    // Pre-activations for z, r (Wx x + Wh h + b) and the candidate's
    // recurrent part Un h_prev kept separate for the r gating. Both
    // products accumulate row-wise over the weight matrices, so the
    // kernels stream contiguous 3H rows instead of striding columns.
    xw.assign(bias_.begin(), bias_.end());
    MatTransposeVecAccumulate(wx_, x, xw.data());
    std::fill(hw.begin(), hw.end(), 0.0);
    MatTransposeVecAccumulate(wh_, hidden.data(), hw.data());

    for (int j = 0; j < h; ++j) {
      step.z[j] = Sigmoid(xw[j] + hw[j]);
      step.r[j] = Sigmoid(xw[h + j] + hw[h + j]);
      step.uh[j] = hw[2 * h + j];
      step.n[j] = std::tanh(xw[2 * h + j] + step.r[j] * step.uh[j]);
    }
    for (int j = 0; j < h; ++j) {
      step.h[j] =
          (1.0 - step.z[j]) * step.n[j] + step.z[j] * step.h_prev[j];
    }
    hidden = step.h;

    // Softmax over the next token: logits = b_out + W_out^T h.
    step.probs = b_out_;
    MatTransposeVecAccumulate(w_out_, hidden.data(), step.probs.data());
    double max_logit = -1e300;
    for (double p : step.probs) max_logit = std::max(max_logit, p);
    double sum = 0.0;
    for (double& p : step.probs) {
      p = std::exp(p - max_logit);
      sum += p;
    }
    for (double& p : step.probs) p /= sum;
    log_prob += std::log(std::max(step.probs[sequence[t]], 1e-12));
  }
  // hlm-lint: hot-path end
  return log_prob;
}

void GruLanguageModel::BackwardSequence(const TokenSequence& sequence,
                                        const std::vector<Step>& steps) {
  const int h = config_.hidden_size;
  const size_t h3 = static_cast<size_t>(3 * h);
  const double inv_tokens =
      1.0 / static_cast<double>(std::max<size_t>(1, sequence.size()));
  // Scratch reused across timesteps (no per-step vector allocations):
  // dpre_x packs the [z r n] pre-activation gradients that flow through
  // Wx, dpre_h the [z r uh] gradients that flow through Wh.
  std::vector<double> dh(h, 0.0);
  std::vector<double> dh_prev(h);
  std::vector<double> dx(h);
  std::vector<double> dlogits(vocab_size_);
  std::vector<double> dpre_x(h3);
  std::vector<double> dpre_h(h3);

  // hlm-lint: hot-path begin (GRU backward step: reverse BPTT over the
  // sequence; all scratch preallocated above)
  for (int t = static_cast<int>(sequence.size()) - 1; t >= 0; --t) {
    const Step& step = steps[t];
    // Output layer: dlogits = (softmax - onehot) / tokens, then
    // d_b_out += dlogits, dW_out += h dlogits^T, dh += W_out dlogits —
    // all row-major over W_out.
    for (int v = 0; v < vocab_size_; ++v) {
      double dlogit = step.probs[v];
      if (v == sequence[t]) dlogit -= 1.0;
      dlogits[v] = dlogit * inv_tokens;
    }
    simd::Axpy(1.0, dlogits.data(), d_b_out_.data(), dlogits.size());
    for (int j = 0; j < h; ++j) {
      simd::Axpy(step.h[j], dlogits.data(), d_w_out_.row(j),
                 dlogits.size());
    }
    MatVecAccumulate(w_out_, dlogits.data(), dh.data());

    // Through the GRU gates.
    std::fill(dx.begin(), dx.end(), 0.0);
    std::fill(dh_prev.begin(), dh_prev.end(), 0.0);
    const double* x = embedding_.row(step.input_row);
    for (int j = 0; j < h; ++j) {
      double dhj = dh[j];
      double dz = dhj * (step.h_prev[j] - step.n[j]);
      double dn = dhj * (1.0 - step.z[j]);
      dh_prev[j] += dhj * step.z[j];

      double dpre_n = dn * (1.0 - step.n[j] * step.n[j]);
      double dr = dpre_n * step.uh[j];
      double duh = dpre_n * step.r[j];
      double dpre_z = dz * step.z[j] * (1.0 - step.z[j]);
      double dpre_r = dr * step.r[j] * (1.0 - step.r[j]);

      dpre_x[j] = dpre_z;
      dpre_x[h + j] = dpre_r;
      dpre_x[2 * h + j] = dpre_n;
      dpre_h[j] = dpre_z;
      dpre_h[h + j] = dpre_r;
      dpre_h[2 * h + j] = duh;
    }
    simd::Axpy(1.0, dpre_x.data(), d_bias_.data(), h3);
    for (int i = 0; i < h; ++i) {
      simd::Axpy(x[i], dpre_x.data(), d_wx_.row(i), h3);
      simd::Axpy(step.h_prev[i], dpre_h.data(), d_wh_.row(i), h3);
    }
    MatVecAccumulate(wx_, dpre_x.data(), dx.data());
    MatVecAccumulate(wh_, dpre_h.data(), dh_prev.data());

    simd::Axpy(1.0, dx.data(), d_embedding_.row(step.input_row),
               static_cast<size_t>(h));
    std::swap(dh, dh_prev);
  }
  // hlm-lint: hot-path end
}

void GruLanguageModel::ApplyUpdate() {
  double norm_sq = 0.0;
  auto accumulate = [&norm_sq](const double* data, size_t n) {
    for (size_t i = 0; i < n; ++i) norm_sq += data[i] * data[i];
  };
  accumulate(d_embedding_.data(), d_embedding_.size());
  accumulate(d_wx_.data(), d_wx_.size());
  accumulate(d_wh_.data(), d_wh_.size());
  accumulate(d_bias_.data(), d_bias_.size());
  accumulate(d_w_out_.data(), d_w_out_.size());
  accumulate(d_b_out_.data(), d_b_out_.size());
  double norm = std::sqrt(norm_sq);
  // One finiteness check on the aggregate covers every gradient tensor
  // of the backward pass (see the matching check in lstm_lm.cc).
  HLM_CHECK_FINITE(norm) << "GRU gradient global norm";
  if (config_.grad_clip > 0.0 && norm > config_.grad_clip) {
    double scale = config_.grad_clip / norm;
    d_embedding_ *= scale;
    d_wx_ *= scale;
    d_wh_ *= scale;
    for (double& g : d_bias_) g *= scale;
    d_w_out_ *= scale;
    for (double& g : d_b_out_) g *= scale;
  }

  ++global_step_;
  const double lr = config_.learning_rate;
  opt_->embedding.Update(embedding_.data(), d_embedding_.data(),
                         embedding_.size(), lr, global_step_);
  opt_->wx.Update(wx_.data(), d_wx_.data(), wx_.size(), lr, global_step_);
  opt_->wh.Update(wh_.data(), d_wh_.data(), wh_.size(), lr, global_step_);
  opt_->bias.Update(bias_.data(), d_bias_.data(), bias_.size(), lr,
                    global_step_);
  opt_->w_out.Update(w_out_.data(), d_w_out_.data(), w_out_.size(), lr,
                     global_step_);
  opt_->b_out.Update(b_out_.data(), d_b_out_.data(), b_out_.size(), lr,
                     global_step_);

  d_embedding_.Fill(0.0);
  d_wx_.Fill(0.0);
  d_wh_.Fill(0.0);
  for (double& g : d_bias_) g = 0.0;
  d_w_out_.Fill(0.0);
  for (double& g : d_b_out_) g = 0.0;
}

void GruLanguageModel::Train(const std::vector<TokenSequence>& sequences) {
  std::vector<const TokenSequence*> order;
  for (const TokenSequence& s : sequences) {
    if (!s.empty()) order.push_back(&s);
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Histogram* epoch_seconds =
      metrics.GetHistogram("hlm.gru.epoch_seconds");
  obs::Counter* steps_total = metrics.GetCounter("hlm.gru.steps_total");
  obs::TraceSpan train_span("gru.train",
                            metrics.GetHistogram("hlm.gru.train_seconds"));
  std::vector<Step> steps;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::TraceSpan epoch_span("gru.epoch", epoch_seconds);
    rng_.Shuffle(&order);
    for (const TokenSequence* sequence : order) {
      ForwardSequence(*sequence, &steps);
      BackwardSequence(*sequence, steps);
      ApplyUpdate();
      steps_total->Increment();
    }
    HLM_LOG(Debug) << "gru epoch " << epoch + 1 << "/" << config_.epochs
                   << " done (" << order.size() << " sequences)";
  }
  HLM_LOG(Info) << "gru trained: " << config_.epochs << " epochs over "
                << order.size() << " sequences";
}

double GruLanguageModel::Perplexity(
    const std::vector<TokenSequence>& sequences) const {
  PerplexityAccumulator acc;
  for (const TokenSequence& sequence : sequences) {
    if (sequence.empty()) continue;
    acc.AddMany(ForwardSequence(sequence, nullptr),
                static_cast<long long>(sequence.size()));
  }
  return acc.Perplexity();
}

std::vector<double> GruLanguageModel::NextProductDistribution(
    const TokenSequence& history) const {
  // Run the history plus one BOS-shifted step and read the final softmax.
  TokenSequence padded = history;
  padded.push_back(0);  // target unused; we want the final distribution
  std::vector<Step> steps;
  ForwardSequence(padded, &steps);
  std::vector<double> dist = steps.back().probs;
  // Same recommender calibration as every other model: exclude owned.
  double kept = 0.0;
  for (Token owned : history) {
    if (owned >= 0 && owned < vocab_size_) {
      kept += dist[owned];
      dist[owned] = 0.0;
    }
  }
  if (kept < 1.0) {
    double scale = 1.0 / (1.0 - kept);
    for (double& p : dist) p *= scale;
  }
  return dist;
}

long long GruLanguageModel::NumParameters() const {
  return static_cast<long long>(embedding_.size()) + wx_.size() +
         wh_.size() + bias_.size() + w_out_.size() + b_out_.size();
}

}  // namespace hlm::models
