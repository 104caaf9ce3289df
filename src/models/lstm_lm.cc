#include "models/lstm_lm.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "math/simd/kernels.h"
#include "models/adam.h"
#include "models/perplexity.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlm::models {

struct LstmLanguageModel::OptState {
  AdamState embedding;
  std::vector<AdamState> cell_wx;
  std::vector<AdamState> cell_wh;
  std::vector<AdamState> cell_bias;
  AdamState w_out;
  AdamState b_out;

  OptState(size_t emb, const std::vector<LstmCell>& cells, size_t wout,
           size_t bout)
      : embedding(emb), w_out(wout), b_out(bout) {
    for (const LstmCell& cell : cells) {
      cell_wx.emplace_back(cell.params().wx.size());
      cell_wh.emplace_back(cell.params().wh.size());
      cell_bias.emplace_back(cell.params().bias.size());
    }
  }
};

/// Per-batch forward state retained for BPTT.
struct LstmLanguageModel::BatchCache {
  std::vector<const TokenSequence*> sequences;
  size_t batch = 0;
  int max_len = 0;
  // [t] -> per-layer step caches.
  std::vector<std::vector<LstmStepCache>> steps;
  // [t] -> B mask of active rows.
  std::vector<std::vector<double>> masks;
  // [t][layer] -> dropout mask applied to that layer's output (B x H);
  // empty when dropout is off.
  std::vector<std::vector<Matrix>> dropout_masks;
  // [t] -> softmax probabilities (B x V) and input embedding ids (B).
  std::vector<Matrix> probs;
  std::vector<std::vector<int>> input_rows;  // embedding row per b, t
  long long active_tokens = 0;
};

LstmLanguageModel::LstmLanguageModel(int vocab_size, LstmConfig config)
    : vocab_size_(vocab_size), config_(config), rng_(config.seed) {
  HLM_CHECK_GT(vocab_size_, 0);
  HLM_CHECK_GT(config_.hidden_size, 0);
  HLM_CHECK_GT(config_.num_layers, 0);
  HLM_CHECK_GE(config_.dropout, 0.0);
  HLM_CHECK_LT(config_.dropout, 1.0);

  const int e = config_.hidden_size;
  embedding_ = Matrix::RandomUniform(vocab_size_ + 1, e, 0.08, &rng_);
  for (int layer = 0; layer < config_.num_layers; ++layer) {
    cells_.emplace_back(e, config_.hidden_size, &rng_);
  }
  double scale = std::sqrt(6.0 / (config_.hidden_size + vocab_size_));
  w_out_ = Matrix::RandomUniform(config_.hidden_size, vocab_size_, scale,
                                 &rng_);
  b_out_.assign(vocab_size_, 0.0);

  d_embedding_ = Matrix(embedding_.rows(), embedding_.cols(), 0.0);
  d_cells_.resize(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    d_cells_[i].ZeroLike(cells_[i].params());
  }
  d_w_out_ = Matrix(w_out_.rows(), w_out_.cols(), 0.0);
  d_b_out_.assign(vocab_size_, 0.0);

  opt_ = std::make_unique<OptState>(embedding_.size(), cells_, w_out_.size(),
                                    b_out_.size());
}

LstmLanguageModel::~LstmLanguageModel() = default;

std::string LstmLanguageModel::name() const {
  return "lstm-" + std::to_string(config_.num_layers) + "x" +
         std::to_string(config_.hidden_size);
}

void LstmLanguageModel::ForwardBatch(
    const std::vector<const TokenSequence*>& batch, bool train_mode,
    Rng* rng, BatchCache* cache, double* total_log_prob,
    long long* num_tokens) const {
  const size_t b_size = batch.size();
  const int h = config_.hidden_size;
  int max_len = 0;
  for (const TokenSequence* seq : batch) {
    max_len = std::max(max_len, static_cast<int>(seq->size()));
  }

  if (cache != nullptr) {
    cache->sequences = batch;
    cache->batch = b_size;
    cache->max_len = max_len;
    cache->steps.assign(max_len, {});
    cache->masks.assign(max_len, {});
    cache->dropout_masks.assign(max_len, {});
    cache->probs.assign(max_len, Matrix());
    cache->input_rows.assign(max_len, {});
    cache->active_tokens = 0;
  }

  std::vector<Matrix> hidden(cells_.size(), Matrix(b_size, h, 0.0));
  std::vector<Matrix> cell_state(cells_.size(), Matrix(b_size, h, 0.0));

  double log_prob = 0.0;
  long long tokens = 0;
  const double keep = 1.0 - config_.dropout;

  // Hoisted per-step buffers: in eval mode (no BPTT cache) every timestep
  // reuses these, so the steady-state forward pass allocates nothing.
  std::vector<LstmStepCache> eval_steps(cells_.size());
  Matrix eval_logits;
  Matrix x;
  std::vector<double> mask;
  std::vector<int> input_rows;

  for (int t = 0; t < max_len; ++t) {
    mask.assign(b_size, 0.0);
    input_rows.assign(b_size, vocab_size_);  // BOS row
    for (size_t b = 0; b < b_size; ++b) {
      if (t < static_cast<int>(batch[b]->size())) {
        mask[b] = 1.0;
        input_rows[b] = t == 0 ? vocab_size_ : (*batch[b])[t - 1];
      }
    }

    // Embedding lookup.
    x.Resize(b_size, h);
    x.Fill(0.0);
    for (size_t b = 0; b < b_size; ++b) {
      if (mask[b] == 0.0) continue;
      const double* row = embedding_.row(input_rows[b]);
      double* xrow = x.row(b);
      for (int j = 0; j < h; ++j) xrow[j] = row[j];
    }

    std::vector<LstmStepCache>* steps = &eval_steps;
    if (cache != nullptr) {
      cache->steps[t].resize(cells_.size());
      steps = &cache->steps[t];
    }
    std::vector<Matrix> local_dropout;
    Matrix* layer_input = &x;
    for (size_t layer = 0; layer < cells_.size(); ++layer) {
      LstmStepCache& step = (*steps)[layer];
      cells_[layer].Forward(*layer_input, hidden[layer], cell_state[layer],
                            mask, &step);
      hidden[layer] = step.h;
      cell_state[layer] = step.c;
      if (train_mode && config_.dropout > 0.0) {
        Matrix dmask(b_size, h);
        for (size_t i = 0; i < dmask.size(); ++i) {
          dmask.data()[i] = rng->NextBernoulli(keep) ? 1.0 / keep : 0.0;
        }
        for (size_t i = 0; i < dmask.size(); ++i) {
          hidden[layer].data()[i] *= dmask.data()[i];
        }
        local_dropout.push_back(std::move(dmask));
      }
      layer_input = &hidden[layer];
    }

    // Softmax over the (possibly dropped-out) top hidden state, computed
    // straight into the BPTT cache slot (or the reused eval buffer).
    Matrix& logits = cache != nullptr ? cache->probs[t] : eval_logits;
    logits.Resize(b_size, vocab_size_);
    logits.Fill(0.0);
    MatMulAccumulate(hidden.back(), w_out_, &logits);
    for (size_t b = 0; b < b_size; ++b) {
      simd::Axpy(1.0, b_out_.data(), logits.row(b),
                 static_cast<size_t>(vocab_size_));
    }
    for (size_t b = 0; b < b_size; ++b) {
      if (mask[b] == 0.0) continue;
      double* lrow = logits.row(b);
      double max_logit = lrow[0];
      for (int v = 1; v < vocab_size_; ++v) {
        max_logit = std::max(max_logit, lrow[v]);
      }
      double sum = 0.0;
      for (int v = 0; v < vocab_size_; ++v) {
        lrow[v] = std::exp(lrow[v] - max_logit);
        sum += lrow[v];
      }
      for (int v = 0; v < vocab_size_; ++v) lrow[v] /= sum;
      Token target = (*batch[b])[t];
      log_prob += std::log(std::max(lrow[target], 1e-12));
      ++tokens;
    }

    if (cache != nullptr) {
      cache->masks[t] = mask;
      cache->dropout_masks[t] = std::move(local_dropout);
      cache->input_rows[t] = input_rows;
    }
  }

  if (cache != nullptr) cache->active_tokens = tokens;
  if (total_log_prob != nullptr) *total_log_prob = log_prob;
  if (num_tokens != nullptr) *num_tokens = tokens;
}

void LstmLanguageModel::BackwardBatch(const BatchCache& cache) {
  const size_t b_size = cache.batch;
  const int h = config_.hidden_size;
  const double inv_tokens =
      1.0 / static_cast<double>(std::max<long long>(1, cache.active_tokens));

  std::vector<Matrix> dh(cells_.size(), Matrix(b_size, h, 0.0));
  std::vector<Matrix> dc(cells_.size(), Matrix(b_size, h, 0.0));

  // Buffers reused across every timestep and layer of the BPTT loop.
  LstmBackwardScratch scratch;
  Matrix dlogits;
  Matrix h_top;
  Matrix dtop;
  Matrix dx;

  for (int t = cache.max_len - 1; t >= 0; --t) {
    const std::vector<double>& mask = cache.masks[t];

    // dlogits = softmax - onehot(target), averaged over active tokens.
    dlogits = cache.probs[t];
    for (size_t b = 0; b < b_size; ++b) {
      double* drow = dlogits.row(b);
      if (mask[b] == 0.0) {
        for (int v = 0; v < vocab_size_; ++v) drow[v] = 0.0;
        continue;
      }
      Token target = (*cache.sequences[b])[t];
      drow[target] -= 1.0;
      for (int v = 0; v < vocab_size_; ++v) drow[v] *= inv_tokens;
    }

    // Output layer gradients. The top hidden state that fed the softmax
    // is the post-dropout one: h_top_dropped = step.h * dropout_mask.
    const LstmStepCache& top_step = cache.steps[t].back();
    h_top = top_step.h;
    const bool has_dropout = !cache.dropout_masks[t].empty();
    if (has_dropout) {
      const Matrix& dmask = cache.dropout_masks[t].back();
      for (size_t i = 0; i < h_top.size(); ++i) {
        h_top.data()[i] *= dmask.data()[i];
      }
    }
    MatTransposeMulAccumulate(h_top, dlogits, &d_w_out_);
    for (size_t b = 0; b < b_size; ++b) {
      const double* drow = dlogits.row(b);
      for (int v = 0; v < vocab_size_; ++v) d_b_out_[v] += drow[v];
    }

    // Gradient into the top layer's (post-dropout) output, plus whatever
    // flowed back from step t+1 (already in dh).
    MatMulTransposedInto(dlogits, w_out_, &dtop);
    if (has_dropout) {
      const Matrix& dmask = cache.dropout_masks[t].back();
      for (size_t i = 0; i < dtop.size(); ++i) {
        dtop.data()[i] *= dmask.data()[i];
      }
    }
    dh.back() += dtop;

    // Backward through the stack.
    for (int layer = static_cast<int>(cells_.size()) - 1; layer >= 0;
         --layer) {
      cells_[layer].Backward(cache.steps[t][layer], mask, &dh[layer],
                             &dc[layer], &dx, &d_cells_[layer], &scratch);
      if (layer > 0) {
        // dx is the gradient on the (post-dropout) output of layer-1.
        if (has_dropout) {
          const Matrix& dmask = cache.dropout_masks[t][layer - 1];
          for (size_t i = 0; i < dx.size(); ++i) {
            dx.data()[i] *= dmask.data()[i];
          }
        }
        dh[layer - 1] += dx;
      } else {
        // Embedding gradient.
        for (size_t b = 0; b < b_size; ++b) {
          if (mask[b] == 0.0) continue;
          simd::Axpy(1.0, dx.row(b),
                     d_embedding_.row(cache.input_rows[t][b]),
                     static_cast<size_t>(h));
        }
      }
    }
  }
}

void LstmLanguageModel::ApplyUpdate() {
  // Global-norm clip across every gradient tensor.
  double norm_sq = 0.0;
  auto accumulate = [&norm_sq](const double* data, size_t n) {
    for (size_t i = 0; i < n; ++i) norm_sq += data[i] * data[i];
  };
  accumulate(d_embedding_.data(), d_embedding_.size());
  for (const LstmCellGrads& g : d_cells_) {
    accumulate(g.wx.data(), g.wx.size());
    accumulate(g.wh.data(), g.wh.size());
    accumulate(g.bias.data(), g.bias.size());
  }
  accumulate(d_w_out_.data(), d_w_out_.size());
  accumulate(d_b_out_.data(), d_b_out_.size());

  double scale = 1.0;
  double norm = std::sqrt(norm_sq);
  // The squared norm aggregates every gradient tensor, so one finiteness
  // check here covers the whole backward pass: any NaN/Inf gradient
  // (exploding cell state, log of zero softmax mass) surfaces with a
  // file:line diagnostic instead of silently zeroing the model via the
  // Adam update.
  HLM_CHECK_FINITE(norm) << "LSTM gradient global norm";
  if (config_.grad_clip > 0.0 && norm > config_.grad_clip) {
    scale = config_.grad_clip / norm;
  }
  if (scale != 1.0) {
    d_embedding_ *= scale;
    for (LstmCellGrads& g : d_cells_) {
      g.wx *= scale;
      g.wh *= scale;
      for (double& b : g.bias) b *= scale;
    }
    d_w_out_ *= scale;
    for (double& b : d_b_out_) b *= scale;
  }

  ++global_step_;
  const double lr = config_.learning_rate;
  opt_->embedding.Update(embedding_.data(), d_embedding_.data(),
                         embedding_.size(), lr, global_step_);
  for (size_t i = 0; i < cells_.size(); ++i) {
    LstmCellParams& p = cells_[i].params();
    opt_->cell_wx[i].Update(p.wx.data(), d_cells_[i].wx.data(), p.wx.size(),
                            lr, global_step_);
    opt_->cell_wh[i].Update(p.wh.data(), d_cells_[i].wh.data(), p.wh.size(),
                            lr, global_step_);
    opt_->cell_bias[i].Update(p.bias.data(), d_cells_[i].bias.data(),
                              p.bias.size(), lr, global_step_);
  }
  opt_->w_out.Update(w_out_.data(), d_w_out_.data(), w_out_.size(), lr,
                     global_step_);
  opt_->b_out.Update(b_out_.data(), d_b_out_.data(), b_out_.size(), lr,
                     global_step_);

  // Zero gradients for the next batch.
  d_embedding_.Fill(0.0);
  for (size_t i = 0; i < cells_.size(); ++i) {
    d_cells_[i].ZeroLike(cells_[i].params());
  }
  d_w_out_.Fill(0.0);
  for (double& b : d_b_out_) b = 0.0;
}

std::vector<LstmLanguageModel::EpochStats> LstmLanguageModel::Train(
    const std::vector<TokenSequence>& train,
    const std::vector<TokenSequence>& valid) {
  // Sort by descending length so batches have little padding waste.
  std::vector<int> order;
  for (size_t i = 0; i < train.size(); ++i) {
    if (!train[i].empty()) order.push_back(static_cast<int>(i));
  }
  std::sort(order.begin(), order.end(), [&train](int a, int b) {
    return train[a].size() > train[b].size();
  });

  std::vector<std::vector<const TokenSequence*>> batches;
  for (size_t start = 0; start < order.size();
       start += config_.batch_size) {
    std::vector<const TokenSequence*> batch;
    size_t end = std::min(order.size(),
                          start + static_cast<size_t>(config_.batch_size));
    for (size_t i = start; i < end; ++i) batch.push_back(&train[order[i]]);
    batches.push_back(std::move(batch));
  }

  std::vector<EpochStats> history;
  double best_valid = 1e300;
  int epochs_since_best = 0;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Histogram* epoch_seconds =
      metrics.GetHistogram("hlm.lstm.epoch_seconds");
  obs::Histogram* step_seconds =
      metrics.GetHistogram("hlm.lstm.step_seconds");
  obs::Counter* steps_total = metrics.GetCounter("hlm.lstm.steps_total");
  obs::Counter* tokens_total = metrics.GetCounter("hlm.lstm.tokens_total");
  obs::Gauge* train_ppl_gauge =
      metrics.GetGauge("hlm.lstm.train_perplexity");
  obs::Gauge* valid_ppl_gauge =
      metrics.GetGauge("hlm.lstm.valid_perplexity");
  obs::TraceSpan train_span("lstm.train",
                            metrics.GetHistogram("hlm.lstm.train_seconds"));

  // Snapshot for early-stopping restoration.
  Matrix best_embedding = embedding_;
  std::vector<LstmCellParams> best_cells;
  for (const LstmCell& cell : cells_) best_cells.push_back(cell.params());
  Matrix best_w_out = w_out_;
  std::vector<double> best_b_out = b_out_;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::TraceSpan epoch_span("lstm.epoch", epoch_seconds);
    // Shuffle batch order (keeps intra-batch length homogeneity).
    rng_.Shuffle(&batches);
    double epoch_log_prob = 0.0;
    long long epoch_tokens = 0;
    for (auto& batch : batches) {
      obs::ScopedTimer step_timer(step_seconds);
      BatchCache cache;
      double log_prob = 0.0;
      long long tokens = 0;
      ForwardBatch(batch, /*train_mode=*/true, &rng_, &cache, &log_prob,
                   &tokens);
      epoch_log_prob += log_prob;
      epoch_tokens += tokens;
      BackwardBatch(cache);
      ApplyUpdate();
      steps_total->Increment();
      tokens_total->Increment(tokens);
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_perplexity =
        epoch_tokens == 0
            ? 1.0
            : std::exp(-epoch_log_prob / static_cast<double>(epoch_tokens));
    stats.valid_perplexity = valid.empty() ? 0.0 : Perplexity(valid);
    history.push_back(stats);
    train_ppl_gauge->Set(stats.train_perplexity);
    valid_ppl_gauge->Set(stats.valid_perplexity);
    HLM_LOG(Debug) << name() << " epoch " << epoch + 1 << "/"
                   << config_.epochs << ": train perplexity "
                   << stats.train_perplexity << ", valid perplexity "
                   << stats.valid_perplexity;

    if (!valid.empty()) {
      if (stats.valid_perplexity < best_valid) {
        best_valid = stats.valid_perplexity;
        epochs_since_best = 0;
        best_embedding = embedding_;
        for (size_t i = 0; i < cells_.size(); ++i) {
          best_cells[i] = cells_[i].params();
        }
        best_w_out = w_out_;
        best_b_out = b_out_;
      } else {
        ++epochs_since_best;
        if (config_.patience > 0 && epochs_since_best >= config_.patience) {
          break;
        }
      }
    }
  }

  // Restore the best-validation parameters only when early stopping is
  // enabled; with patience == 0 we keep the final epoch (the paper's
  // fixed-14-epoch protocol).
  if (config_.patience > 0 && !valid.empty() && best_valid < 1e300) {
    embedding_ = std::move(best_embedding);
    for (size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].params() = best_cells[i];
    }
    w_out_ = std::move(best_w_out);
    b_out_ = std::move(best_b_out);
  }
  if (!history.empty()) {
    HLM_LOG(Info) << name() << " trained: " << history.size() << "/"
                  << config_.epochs << " epochs, final train perplexity "
                  << history.back().train_perplexity
                  << ", best valid perplexity "
                  << (best_valid < 1e300 ? best_valid
                                         : history.back().valid_perplexity);
  }
  return history;
}

double LstmLanguageModel::Perplexity(
    const std::vector<TokenSequence>& sequences) const {
  std::vector<std::vector<const TokenSequence*>> batches;
  for (const TokenSequence& sequence : sequences) {
    if (sequence.empty()) continue;
    if (batches.empty() ||
        static_cast<int>(batches.back().size()) >= config_.batch_size) {
      batches.emplace_back();
    }
    batches.back().push_back(&sequence);
  }
  // Eval-mode forward passes draw no randomness and fill no cache, so the
  // batches score in parallel; the ordered reduce keeps the serial sum.
  PerplexityAccumulator acc = ParallelMapReduce(
      0, batches.size(), /*grain=*/0, PerplexityAccumulator(),
      [&](size_t b) {
        std::pair<double, long long> part{0.0, 0};
        ForwardBatch(batches[b], /*train_mode=*/false, nullptr, nullptr,
                     &part.first, &part.second);
        return part;
      },
      [](PerplexityAccumulator reduced, std::pair<double, long long> part) {
        reduced.AddMany(part.first, part.second);
        return reduced;
      });
  return acc.Perplexity();
}

std::vector<double> LstmLanguageModel::NextProductDistribution(
    const TokenSequence& history) const {
  const int h = config_.hidden_size;
  std::vector<Matrix> hidden(cells_.size(), Matrix(1, h, 0.0));
  std::vector<Matrix> cell_state(cells_.size(), Matrix(1, h, 0.0));
  std::vector<double> mask{1.0};

  // Consume BOS + history, then read the distribution after the last
  // input. Step caches are reused across timesteps.
  std::vector<LstmStepCache> steps(cells_.size());
  Matrix x(1, h);
  for (size_t t = 0; t <= history.size(); ++t) {
    int row = t == 0 ? vocab_size_ : history[t - 1];
    const double* erow = embedding_.row(row);
    for (int j = 0; j < h; ++j) x(0, j) = erow[j];
    const Matrix* input = &x;
    for (size_t layer = 0; layer < cells_.size(); ++layer) {
      LstmStepCache& step = steps[layer];
      cells_[layer].Forward(*input, hidden[layer], cell_state[layer], mask,
                            &step);
      hidden[layer] = step.h;
      cell_state[layer] = step.c;
      input = &hidden[layer];
    }
  }

  // logits = b_out + W_out^T h_top, accumulated row-wise over W_out so
  // the inner loop runs along contiguous memory.
  std::vector<double> logits = b_out_;
  const double* top = hidden.back().row(0);
  MatTransposeVecAccumulate(w_out_, top, logits.data());
  // Softmax.
  double max_logit = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (double& v : logits) {
    v = std::exp(v - max_logit);
    total += v;
  }
  for (double& v : logits) v /= total;
  // Recommender calibration shared by every model: a product appears at
  // most once, so condition on "not owned yet" (the trained network
  // already puts little mass there; this removes the remainder).
  double kept = 0.0;
  for (Token owned : history) {
    if (owned >= 0 && owned < vocab_size_) {
      kept += logits[owned];
      logits[owned] = 0.0;
    }
  }
  if (kept < 1.0) {
    double scale = 1.0 / (1.0 - kept);
    for (double& v : logits) v *= scale;
  }
  return logits;
}

std::vector<std::vector<double>> LstmLanguageModel::ProductEmbeddings()
    const {
  std::vector<std::vector<double>> embeddings(
      vocab_size_, std::vector<double>(config_.hidden_size, 0.0));
  for (int v = 0; v < vocab_size_; ++v) {
    const double* row = embedding_.row(v);
    for (int j = 0; j < config_.hidden_size; ++j) embeddings[v][j] = row[j];
  }
  return embeddings;
}

std::vector<double> LstmLanguageModel::CompanyEmbedding(
    const TokenSequence& sequence) const {
  const int h = config_.hidden_size;
  std::vector<Matrix> hidden(cells_.size(), Matrix(1, h, 0.0));
  std::vector<Matrix> cell_state(cells_.size(), Matrix(1, h, 0.0));
  std::vector<double> mask{1.0};
  std::vector<LstmStepCache> steps(cells_.size());
  Matrix x(1, h);
  for (size_t t = 0; t <= sequence.size(); ++t) {
    int row = t == 0 ? vocab_size_ : sequence[t - 1];
    const double* erow = embedding_.row(row);
    for (int j = 0; j < h; ++j) x(0, j) = erow[j];
    const Matrix* input = &x;
    for (size_t layer = 0; layer < cells_.size(); ++layer) {
      LstmStepCache& step = steps[layer];
      cells_[layer].Forward(*input, hidden[layer], cell_state[layer], mask,
                            &step);
      hidden[layer] = step.h;
      cell_state[layer] = step.c;
      input = &hidden[layer];
    }
  }
  const double* top = hidden.back().row(0);
  return std::vector<double>(top, top + h);
}

long long LstmLanguageModel::NumParameters() const {
  long long total = static_cast<long long>(embedding_.size());
  for (const LstmCell& cell : cells_) total += cell.NumParameters();
  total += static_cast<long long>(w_out_.size()) +
           static_cast<long long>(b_out_.size());
  return total;
}

}  // namespace hlm::models
