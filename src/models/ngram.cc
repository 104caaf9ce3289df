#include "models/ngram.h"

#include <cmath>

#include "common/check.h"
#include "models/perplexity.h"

namespace hlm::models {

NGramModel::NGramModel(int vocab_size, NGramConfig config)
    : vocab_size_(vocab_size), config_(config) {
  HLM_CHECK_GT(vocab_size_, 0);
  HLM_CHECK_GE(config_.order, 1);
  HLM_CHECK_LE(config_.order, 7);
  HLM_CHECK_LT(vocab_size_, 253);  // token+2 must fit a byte in PackContext
  HLM_CHECK_GT(config_.add_k, 0.0);
}

uint64_t NGramModel::PackContext(const Token* tokens, int length) {
  // Byte 7 carries the context length so different orders never collide;
  // each token maps to token+2 (BOS = 1, never 0).
  uint64_t key = static_cast<uint64_t>(length) << 56;
  for (int i = 0; i < length; ++i) {
    uint64_t encoded =
        tokens[i] == kBos ? 1u : static_cast<uint64_t>(tokens[i] + 2);
    key |= encoded << (8 * i);
  }
  return key;
}

void NGramModel::Train(const std::vector<TokenSequence>& sequences) {
  std::vector<Token> padded;
  for (const TokenSequence& sequence : sequences) {
    padded.assign(static_cast<size_t>(config_.order - 1), kBos);
    padded.insert(padded.end(), sequence.begin(), sequence.end());
    const int pad = config_.order - 1;
    for (size_t i = static_cast<size_t>(pad); i < padded.size(); ++i) {
      Token token = padded[i];
      total_tokens_ += 1;
      for (int order = 1; order <= config_.order; ++order) {
        int context_len = order - 1;
        const Token* context = padded.data() + i - context_len;
        uint64_t key = PackContext(context, context_len);
        ContextCounts& counts = context_counts_[key];
        counts.total += 1;
        counts.token_counts[token] += 1;
      }
    }
  }
}

double NGramModel::ProbAtOrder(const Token* context, int context_len,
                               Token token, int order) const {
  uint64_t key = PackContext(context, context_len);
  auto it = context_counts_.find(key);
  long long joint = 0;
  long long total = 0;
  if (it != context_counts_.end()) {
    total = it->second.total;
    auto jt = it->second.token_counts.find(token);
    if (jt != it->second.token_counts.end()) joint = jt->second;
  }
  double smoothed = (static_cast<double>(joint) + config_.add_k) /
                    (static_cast<double>(total) +
                     config_.add_k * static_cast<double>(vocab_size_));
  if (order == 1 || config_.interpolation_weight >= 1.0) return smoothed;
  double lower =
      ProbAtOrder(context + 1, context_len - 1, token, order - 1);
  return config_.interpolation_weight * smoothed +
         (1.0 - config_.interpolation_weight) * lower;
}

double NGramModel::ConditionalProb(const TokenSequence& history,
                                   Token token) const {
  const int context_len = config_.order - 1;
  std::vector<Token> context(static_cast<size_t>(context_len), kBos);
  int have = static_cast<int>(history.size());
  for (int i = 0; i < context_len && i < have; ++i) {
    context[context_len - 1 - i] = history[have - 1 - i];
  }
  return ProbAtOrder(context.data(), context_len, token, config_.order);
}

std::vector<double> NGramModel::NextProductDistribution(
    const TokenSequence& history) const {
  std::vector<double> dist(vocab_size_);
  for (Token t = 0; t < vocab_size_; ++t) {
    dist[t] = ConditionalProb(history, t);
  }
  return dist;
}

std::string NGramModel::name() const {
  switch (config_.order) {
    case 1:
      return "unigram";
    case 2:
      return "bigram";
    case 3:
      return "trigram";
    default:
      return std::to_string(config_.order) + "-gram";
  }
}

double NGramModel::Perplexity(
    const std::vector<TokenSequence>& sequences) const {
  return SequencePerplexity(*this, sequences);
}

long long NGramModel::NgramCount(const TokenSequence& ngram) const {
  HLM_CHECK(!ngram.empty());
  HLM_CHECK_LE(static_cast<int>(ngram.size()), config_.order);
  int context_len = static_cast<int>(ngram.size()) - 1;
  uint64_t key = PackContext(ngram.data(), context_len);
  auto it = context_counts_.find(key);
  if (it == context_counts_.end()) return 0;
  auto jt = it->second.token_counts.find(ngram.back());
  return jt == it->second.token_counts.end() ? 0 : jt->second;
}

}  // namespace hlm::models
