#include "models/lda.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/snapshot.h"
#include "math/rng.h"
#include "math/simd/kernels.h"
#include "math/vector_ops.h"
#include "models/perplexity.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlm::models {

namespace {

/// Sweeps between log-likelihood evaluations (each costs O(K·V + D·K)
/// lgammas, a few percent of one Gibbs sweep at the default schedule).
constexpr int kLogLikelihoodEvery = 20;

// Collapsed joint log p(w, z) of the current Gibbs state. Counts may be
// fractional (TF-IDF weighted mode); lgamma handles real arguments.
double CollapsedLogLikelihood(
    const std::vector<std::vector<double>>& doc_topic,
    const std::vector<double>& word_topic,
    const std::vector<double>& topic_total, double alpha, double beta,
    int vocab_size) {
  const int k = static_cast<int>(topic_total.size());
  const double v = static_cast<double>(vocab_size);
  double ll = k * (std::lgamma(v * beta) - v * std::lgamma(beta));
  for (int w = 0; w < vocab_size; ++w) {
    for (int t = 0; t < k; ++t) {
      ll += std::lgamma(word_topic[static_cast<size_t>(w) * k + t] + beta);
    }
  }
  for (int t = 0; t < k; ++t) {
    ll -= std::lgamma(topic_total[t] + v * beta);
  }
  const double lg_alpha = std::lgamma(alpha);
  const double lg_k_alpha = std::lgamma(static_cast<double>(k) * alpha);
  for (const std::vector<double>& row : doc_topic) {
    double doc_tokens = 0.0;
    ll += lg_k_alpha;
    for (double count : row) {
      ll += std::lgamma(count + alpha) - lg_alpha;
      doc_tokens += count;
    }
    ll -= std::lgamma(doc_tokens + static_cast<double>(k) * alpha);
  }
  return ll;
}

// Mixes a document's tokens into a deterministic per-document seed so
// const inference is reproducible without shared mutable state.
uint64_t DocumentSeed(uint64_t base, const TokenSequence& document) {
  uint64_t h = base ^ 0x9e3779b97f4a7c15ULL;
  for (Token t : document) {
    h ^= static_cast<uint64_t>(t) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  }
  return h;
}

}  // namespace

LdaModel::LdaModel(int vocab_size, LdaConfig config)
    : vocab_size_(vocab_size), config_(config) {
  HLM_CHECK_GT(vocab_size_, 0);
  HLM_CHECK_GT(config_.num_topics, 0);
  HLM_CHECK_GT(config_.alpha, 0.0);
  HLM_CHECK_GT(config_.beta, 0.0);
}

Status LdaModel::Train(const std::vector<TokenSequence>& documents) {
  return TrainInternal(documents, nullptr);
}

Status LdaModel::TrainWeighted(
    const std::vector<TokenSequence>& documents,
    const std::vector<std::vector<double>>& weights) {
  if (weights.size() != documents.size()) {
    return Status::InvalidArgument("weights shape mismatch with documents");
  }
  for (size_t d = 0; d < documents.size(); ++d) {
    if (weights[d].size() != documents[d].size()) {
      return Status::InvalidArgument("weights shape mismatch in document " +
                                     std::to_string(d));
    }
    for (double w : weights[d]) {
      if (!(w > 0.0)) {
        return Status::InvalidArgument("token weights must be positive");
      }
    }
  }
  return TrainInternal(documents, &weights);
}

Status LdaModel::TrainInternal(
    const std::vector<TokenSequence>& documents,
    const std::vector<std::vector<double>>* weights) {
  if (documents.empty()) {
    return Status::InvalidArgument("empty training corpus");
  }
  for (const TokenSequence& doc : documents) {
    for (Token t : doc) {
      if (t < 0 || t >= vocab_size_) {
        return Status::OutOfRange("token out of vocabulary: " +
                                  std::to_string(t));
      }
    }
  }

  const int k = config_.num_topics;
  const double v_beta = config_.beta * static_cast<double>(vocab_size_);
  Rng rng(config_.seed);

  // Collapsed state: per-token topic assignment plus (weighted) counts.
  std::vector<std::vector<int>> assignments(documents.size());
  std::vector<std::vector<double>> doc_topic(documents.size(),
                                             std::vector<double>(k, 0.0));
  // Word-major counts (word_topic[w * k + t]): the per-token scorer reads
  // all k topics of one word, so this layout feeds simd::GibbsScore a
  // contiguous row where the topic-major layout would stride by V.
  std::vector<double> word_topic(
      static_cast<size_t>(vocab_size_) * k, 0.0);
  std::vector<double> topic_total(k, 0.0);

  for (size_t d = 0; d < documents.size(); ++d) {
    assignments[d].resize(documents[d].size());
    for (size_t i = 0; i < documents[d].size(); ++i) {
      int topic = static_cast<int>(rng.NextBounded(k));
      double w = weights == nullptr ? 1.0 : (*weights)[d][i];
      assignments[d][i] = topic;
      doc_topic[d][topic] += w;
      word_topic[static_cast<size_t>(documents[d][i]) * k + topic] += w;
      topic_total[topic] += w;
    }
  }

  phi_.assign(k, std::vector<double>(vocab_size_, 0.0));
  int samples_taken = 0;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Histogram* sweep_seconds =
      metrics.GetHistogram("hlm.lda.gibbs_sweep_seconds");
  obs::Counter* sweeps_total = metrics.GetCounter("hlm.lda.sweeps_total");
  obs::Gauge* ll_gauge = metrics.GetGauge("hlm.lda.log_likelihood");
  obs::TraceSpan train_span("lda.train",
                            metrics.GetHistogram("hlm.lda.train_seconds"));

  std::vector<double> topic_probs(k);
  const int total_sweeps = config_.burn_in_iterations +
                           config_.post_burn_in_samples * config_.sample_lag;
  for (int sweep = 0; sweep < total_sweeps; ++sweep) {
    obs::ScopedTimer sweep_timer(sweep_seconds);
    // hlm-lint: hot-path begin (collapsed Gibbs sweep: every token of
    // every document, the innermost loop of training; topic_probs is
    // preallocated above and the counts update in place)
    for (size_t d = 0; d < documents.size(); ++d) {
      const TokenSequence& doc = documents[d];
      for (size_t i = 0; i < doc.size(); ++i) {
        const Token word = doc[i];
        const int old_topic = assignments[d][i];
        const double w = weights == nullptr ? 1.0 : (*weights)[d][i];

        double* word_counts = &word_topic[static_cast<size_t>(word) * k];
        doc_topic[d][old_topic] -= w;
        word_counts[old_topic] -= w;
        topic_total[old_topic] -= w;

        simd::GibbsScore(doc_topic[d].data(), config_.alpha, word_counts,
                         config_.beta, topic_total.data(), v_beta,
                         topic_probs.data(), k);
        int new_topic = static_cast<int>(rng.NextCategorical(topic_probs));

        assignments[d][i] = new_topic;
        doc_topic[d][new_topic] += w;
        word_counts[new_topic] += w;
        topic_total[new_topic] += w;
      }
    }
    // hlm-lint: hot-path end

    bool sampling_phase = sweep >= config_.burn_in_iterations;
    bool on_lag = sampling_phase &&
                  (sweep - config_.burn_in_iterations) % config_.sample_lag ==
                      config_.sample_lag - 1;
    if (on_lag) {
      for (int t = 0; t < k; ++t) {
        for (int wd = 0; wd < vocab_size_; ++wd) {
          phi_[t][wd] += (word_topic[static_cast<size_t>(wd) * k + t] +
                          config_.beta) /
                         (topic_total[t] + v_beta);
        }
      }
      ++samples_taken;
    }

    // Debug builds validate the collapsed state every sweep: weighted
    // counts stay finite and non-negative (a NaN in any count would
    // silently poison every subsequent categorical draw).
    HLM_DCHECK(check_internal::AllFinite(topic_total.data(),
                                         topic_total.size()))
        << "non-finite topic totals after sweep " << sweep;
    for (int t = 0; t < k; ++t) {
      HLM_DCHECK_GE(topic_total[t], -1e-9)
          << "negative topic total for topic " << t << " after sweep "
          << sweep;
    }

    sweep_timer.Stop();
    sweeps_total->Increment();
    if ((sweep + 1) % kLogLikelihoodEvery == 0) {
      double ll = CollapsedLogLikelihood(doc_topic, word_topic, topic_total,
                                         config_.alpha, config_.beta,
                                         vocab_size_);
      ll_gauge->Set(ll);
      HLM_LOG(Debug) << "lda" << k << " gibbs sweep " << sweep + 1 << "/"
                     << total_sweeps << ": joint log-likelihood " << ll
                     << (sampling_phase ? " (sampling)" : " (burn-in)");
    }
  }

  const double final_ll =
      CollapsedLogLikelihood(doc_topic, word_topic, topic_total,
                             config_.alpha, config_.beta, vocab_size_);
  ll_gauge->Set(final_ll);

  if (samples_taken == 0) {
    // Degenerate schedule: fall back to the final state.
    for (int t = 0; t < k; ++t) {
      for (int wd = 0; wd < vocab_size_; ++wd) {
        phi_[t][wd] = (word_topic[static_cast<size_t>(wd) * k + t] +
                       config_.beta) /
                      (topic_total[t] + v_beta);
      }
    }
  } else {
    for (int t = 0; t < k; ++t) {
      for (double& p : phi_[t]) p /= static_cast<double>(samples_taken);
      NormalizeInPlace(&phi_[t]);
    }
  }
  trained_ = true;
  BuildWordMajorPhi();
  CheckInvariants();
  HLM_LOG(Info) << "lda" << k << " trained on " << documents.size()
                << " documents: " << total_sweeps << " gibbs sweeps ("
                << samples_taken << " phi samples), final joint "
                << "log-likelihood " << final_ll;
  // One wide event per training run: everything a dashboard needs to
  // characterize the run in a single JSONL line.
  HLM_EVENT("lda.train.done",
            {{"topics", k},
             {"documents", static_cast<long long>(documents.size())},
             {"sweeps", total_sweeps},
             {"phi_samples", samples_taken},
             {"log_likelihood", final_ll}});
  return Status::OK();
}

std::vector<double> LdaModel::InferTopicMixture(
    const TokenSequence& document) const {
  HLM_CHECK(trained_);
  const int k = config_.num_topics;
  std::vector<double> theta(k, 0.0);
  if (document.empty()) {
    // Prior mean for an empty install base.
    for (double& v : theta) v = 1.0 / static_cast<double>(k);
    return theta;
  }

  Rng rng(DocumentSeed(config_.seed, document));
  std::vector<int> assignments(document.size());
  std::vector<double> doc_topic(k, 0.0);
  for (size_t i = 0; i < document.size(); ++i) {
    int topic = static_cast<int>(rng.NextBounded(k));
    assignments[i] = topic;
    doc_topic[topic] += 1.0;
  }

  std::vector<double> topic_probs(k);
  std::vector<double> theta_accum(k, 0.0);
  int samples = 0;
  const int sweeps = config_.inference_burn_in + config_.inference_samples;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (size_t i = 0; i < document.size(); ++i) {
      const Token word = document[i];
      doc_topic[assignments[i]] -= 1.0;
      simd::ShiftedProduct(doc_topic.data(), config_.alpha,
                           &phi_wm_[static_cast<size_t>(word) * k],
                           topic_probs.data(), k);
      assignments[i] = static_cast<int>(rng.NextCategorical(topic_probs));
      doc_topic[assignments[i]] += 1.0;
    }
    if (sweep >= config_.inference_burn_in) {
      double denom = static_cast<double>(document.size()) +
                     config_.alpha * static_cast<double>(k);
      for (int t = 0; t < k; ++t) {
        theta_accum[t] += (doc_topic[t] + config_.alpha) / denom;
      }
      ++samples;
    }
  }
  for (int t = 0; t < k; ++t) {
    theta[t] = theta_accum[t] / static_cast<double>(samples);
  }
  NormalizeInPlace(&theta);
  return theta;
}

std::vector<std::vector<double>> LdaModel::InferTopicMixtures(
    const std::vector<TokenSequence>& documents) const {
  HLM_CHECK(trained_);
  std::vector<std::vector<double>> thetas(documents.size());
  ParallelFor(0, documents.size(), /*grain=*/0,
              [&](size_t d) { thetas[d] = InferTopicMixture(documents[d]); });
  return thetas;
}

double LdaModel::PerplexityOverDocuments(
    size_t num_documents,
    const std::function<std::pair<double, long long>(size_t)>& per_document)
    const {
  obs::MetricsRegistry::Global()
      .GetCounter("hlm.lda.documents_scored_total")
      ->Increment(static_cast<long long>(num_documents));
  PerplexityAccumulator acc = ParallelMapReduce(
      0, num_documents, /*grain=*/0, PerplexityAccumulator(), per_document,
      [](PerplexityAccumulator reduced, std::pair<double, long long> part) {
        reduced.AddMany(part.first, part.second);
        return reduced;
      });
  return acc.Perplexity();
}

std::pair<double, long long> LdaModel::ScoreTokens(
    const std::vector<double>& theta, const TokenSequence& tokens) const {
  const int k = config_.num_topics;
  double log_prob = 0.0;
  for (Token word : tokens) {
    double p = simd::Dot(theta.data(),
                         &phi_wm_[static_cast<size_t>(word) * k], k);
    log_prob += std::log(std::max(p, 1e-12));
  }
  return {log_prob, static_cast<long long>(tokens.size())};
}

double LdaModel::Perplexity(
    const std::vector<TokenSequence>& documents) const {
  HLM_CHECK(trained_);
  return PerplexityOverDocuments(
      documents.size(),
      [&](size_t d) -> std::pair<double, long long> {
        const TokenSequence& doc = documents[d];
        if (doc.empty()) return {0.0, 0};
        return ScoreTokens(InferTopicMixture(doc), doc);
      });
}

double LdaModel::PerplexityCompletion(
    const std::vector<TokenSequence>& documents) const {
  HLM_CHECK(trained_);
  return PerplexityOverDocuments(
      documents.size(),
      [&](size_t d) -> std::pair<double, long long> {
        const TokenSequence& doc = documents[d];
        if (doc.empty()) return {0.0, 0};
        TokenSequence shuffled = doc;
        Rng rng(DocumentSeed(config_.seed ^ 0xc0117e57, doc));
        rng.Shuffle(&shuffled);
        size_t half = shuffled.size() / 2;
        TokenSequence observed(shuffled.begin(), shuffled.begin() + half);
        TokenSequence held_out(shuffled.begin() + half, shuffled.end());
        return ScoreTokens(InferTopicMixture(observed), held_out);
      });
}

double LdaModel::PerplexityLeftToRight(
    const std::vector<TokenSequence>& documents, int particles) const {
  HLM_CHECK(trained_);
  HLM_CHECK_GT(particles, 0);
  const int k = config_.num_topics;
  return PerplexityOverDocuments(
      documents.size(),
      [&, k](size_t d) -> std::pair<double, long long> {
        const TokenSequence& doc = documents[d];
        if (doc.empty()) return {0.0, 0};
        double log_prob = 0.0;
        long long scored = 0;
        Rng rng(DocumentSeed(config_.seed ^ 0xabcdef, doc));
        // particle state: topic assignment of already-seen tokens.
        std::vector<std::vector<int>> particle_topics(
            particles, std::vector<int>());
        std::vector<std::vector<double>> particle_counts(
            particles, std::vector<double>(k, 0.0));
        std::vector<double> topic_probs(k);
        for (size_t n = 0; n < doc.size(); ++n) {
          const Token word = doc[n];
          double p_word = 0.0;
          for (int r = 0; r < particles; ++r) {
            auto& topics = particle_topics[r];
            auto& counts = particle_counts[r];
            // Resample topics of previous positions (one sweep).
            for (size_t j = 0; j < topics.size(); ++j) {
              counts[topics[j]] -= 1.0;
              simd::ShiftedProduct(
                  counts.data(), config_.alpha,
                  &phi_wm_[static_cast<size_t>(doc[j]) * k],
                  topic_probs.data(), k);
              topics[j] = static_cast<int>(rng.NextCategorical(topic_probs));
              counts[topics[j]] += 1.0;
            }
            // Predictive probability of the next word:
            // sum_t (counts_t + alpha) phi_t(w) / denom.
            double denom = static_cast<double>(n) +
                           config_.alpha * static_cast<double>(k);
            simd::ShiftedProduct(counts.data(), config_.alpha,
                                 &phi_wm_[static_cast<size_t>(word) * k],
                                 topic_probs.data(), k);
            p_word += simd::Sum(topic_probs.data(), topic_probs.size()) /
                      denom;
            // Sample the new word's topic and include it in the particle
            // (topic_probs already holds the unnormalized scores).
            int z = static_cast<int>(rng.NextCategorical(topic_probs));
            topics.push_back(z);
            counts[z] += 1.0;
          }
          log_prob += std::log(std::max(p_word / particles, 1e-12));
          ++scored;
        }
        return {log_prob, scored};
      });
}

std::vector<double> LdaModel::NextProductDistribution(
    const TokenSequence& history) const {
  HLM_CHECK(trained_);
  std::vector<double> theta = InferTopicMixture(history);
  std::vector<double> dist(vocab_size_, 0.0);
  for (int t = 0; t < config_.num_topics; ++t) {
    simd::Axpy(theta[t], phi_[t].data(), dist.data(),
               static_cast<size_t>(vocab_size_));
  }
  // A company owns each category at most once, so the correct predictive
  // distribution of the exchangeable set model excludes what the history
  // already contains and renormalizes over the complement.
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

double LdaModel::PerplexitySequential(
    const std::vector<TokenSequence>& documents) const {
  return SequencePerplexity(*this, documents);
}

void LdaModel::CheckInvariants() const {
  HLM_CHECK(trained_);
  HLM_CHECK_EQ(phi_.size(), static_cast<size_t>(config_.num_topics));
  for (size_t t = 0; t < phi_.size(); ++t) {
    const std::vector<double>& row = phi_[t];
    HLM_CHECK_EQ(row.size(), static_cast<size_t>(vocab_size_));
    double sum = 0.0;
    for (size_t w = 0; w < row.size(); ++w) {
      HLM_CHECK_FINITE(row[w])
          << "phi[" << t << "][" << w << "] in topic-word distribution";
      HLM_CHECK_PROB(row[w])
          << "phi[" << t << "][" << w << "] in topic-word distribution";
      sum += row[w];
    }
    HLM_CHECK(std::fabs(sum - 1.0) <= 1e-6)
        << "phi row " << t << " sums to " << sum << ", expected 1";
  }
}

Status LdaModel::SaveToFile(const std::string& path) const {
  if (!trained_) return Status::FailedPrecondition("model not trained");
  SnapshotWriter writer("lda", 1);
  std::ostream& out = writer.payload();
  out << vocab_size_ << ' ' << config_.num_topics << ' ' << config_.alpha
      << ' ' << config_.beta << ' ' << config_.inference_burn_in << ' '
      << config_.inference_samples << ' ' << config_.seed << '\n';
  for (const auto& row : phi_) {
    for (size_t w = 0; w < row.size(); ++w) {
      if (w > 0) out << ' ';
      out << row[w];
    }
    out << '\n';
  }
  return writer.CommitToFile(path);
}

Result<LdaModel> LdaModel::LoadFromFile(const std::string& path) {
  HLM_ASSIGN_OR_RETURN(SnapshotReader reader,
                       SnapshotReader::Open(path));
  HLM_RETURN_IF_ERROR(reader.ExpectKind("lda", 1));
  std::istream& in = reader.payload();
  int vocab = 0;
  LdaConfig config;
  in >> vocab >> config.num_topics >> config.alpha >> config.beta >>
      config.inference_burn_in >> config.inference_samples >> config.seed;
  // Fold-in runs burn_in + samples sweeps and divides by samples, so
  // both are bounded here: 0 samples would serve a NaN mixture.
  if (!in || vocab <= 0 || config.num_topics <= 0 || !(config.alpha > 0.0) ||
      !(config.beta > 0.0) || config.inference_burn_in < 0 ||
      config.inference_samples <= 0 ||
      config.inference_burn_in >
          std::numeric_limits<int>::max() - config.inference_samples) {
    return Status::DataLoss("corrupt lda snapshot header: " + path);
  }
  HLM_RETURN_IF_ERROR(reader.CheckShape(static_cast<size_t>(config.num_topics),
                                        static_cast<size_t>(vocab)));
  LdaModel model(vocab, config);
  model.phi_.assign(config.num_topics, std::vector<double>(vocab, 0.0));
  for (auto& row : model.phi_) {
    for (double& value : row) in >> value;
  }
  HLM_RETURN_IF_ERROR(reader.Finish());
  model.trained_ = true;
  model.BuildWordMajorPhi();
  return model;
}

void LdaModel::BuildWordMajorPhi() {
  const int k = config_.num_topics;
  phi_wm_.assign(static_cast<size_t>(vocab_size_) * k, 0.0);
  for (int t = 0; t < k; ++t) {
    for (int w = 0; w < vocab_size_; ++w) {
      phi_wm_[static_cast<size_t>(w) * k + t] = phi_[t][w];
    }
  }
}

std::vector<std::vector<double>> LdaModel::ProductEmbeddings() const {
  HLM_CHECK(trained_);
  std::vector<std::vector<double>> embeddings(
      vocab_size_, std::vector<double>(config_.num_topics, 0.0));
  for (int w = 0; w < vocab_size_; ++w) {
    for (int t = 0; t < config_.num_topics; ++t) {
      embeddings[w][t] = phi_[t][w];
    }
    NormalizeInPlace(&embeddings[w]);  // P(topic | word) up to the prior
  }
  return embeddings;
}

}  // namespace hlm::models
