#include "models/chh.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hlm::models {

ConditionalHeavyHitters::ConditionalHeavyHitters(int vocab_size,
                                                 ChhConfig config)
    : vocab_size_(vocab_size),
      config_(config),
      unigram_(vocab_size, 0) {
  HLM_CHECK_GT(vocab_size_, 0);
  HLM_CHECK_GE(config_.context_depth, 1);
  HLM_CHECK_LE(config_.context_depth, 6);
  HLM_CHECK_LT(vocab_size_, 253);
}

uint64_t ConditionalHeavyHitters::PackContext(const Token* tokens,
                                              int length) {
  uint64_t key = static_cast<uint64_t>(length) << 56;
  for (int i = 0; i < length; ++i) {
    key |= static_cast<uint64_t>(tokens[i] + 2) << (8 * i);
  }
  return key;
}

TokenSequence ConditionalHeavyHitters::UnpackContext(uint64_t key) {
  int length = static_cast<int>(key >> 56);
  TokenSequence context(length);
  for (int i = 0; i < length; ++i) {
    context[i] = static_cast<Token>(((key >> (8 * i)) & 0xff) - 2);
  }
  return context;
}

void ConditionalHeavyHitters::ObserveSequence(const TokenSequence& sequence) {
  for (size_t i = 0; i < sequence.size(); ++i) {
    ++unigram_[sequence[i]];
    ++total_tokens_;
    // Every context depth ending right before position i.
    for (int depth = 1; depth <= config_.context_depth; ++depth) {
      if (static_cast<size_t>(depth) > i) break;
      const Token* context = sequence.data() + i - depth;
      ContextCounts& counts = contexts_[PackContext(context, depth)];
      counts.total += 1;
      counts.successors[sequence[i]] += 1;
      ++total_transitions_;
    }
  }
}

void ConditionalHeavyHitters::Train(
    const std::vector<TokenSequence>& sequences) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::TraceSpan train_span("chh.train",
                            metrics.GetHistogram("hlm.chh.train_seconds"));
  const long long tokens_before = total_tokens_;
  for (const TokenSequence& sequence : sequences) ObserveSequence(sequence);
  metrics.GetCounter("hlm.chh.tokens_total")
      ->Increment(total_tokens_ - tokens_before);
  metrics.GetGauge("hlm.chh.contexts")
      ->Set(static_cast<double>(contexts_.size()));
  HLM_LOG(Info) << "chh trained: depth " << config_.context_depth << ", "
                << total_tokens_ - tokens_before << " tokens observed, "
                << contexts_.size() << " contexts tracked";
}

const ConditionalHeavyHitters::ContextCounts*
ConditionalHeavyHitters::FindContext(const Token* tokens, int length) const {
  auto it = contexts_.find(PackContext(tokens, length));
  return it == contexts_.end() ? nullptr : &it->second;
}

namespace {

// A product appears in an install base at most once: condition the
// recommender's distribution on "not owned yet" by zeroing history
// tokens and renormalizing (kept consistent across all recommenders so
// Fig. 3/4's threshold sweeps compare calibrated quantities).
void ExcludeOwnedAndRenormalize(const TokenSequence& history,
                                std::vector<double>* dist) {
  double kept = 0.0;
  for (Token owned : history) {
    if (owned >= 0 && owned < static_cast<Token>(dist->size())) {
      kept += (*dist)[owned];
      (*dist)[owned] = 0.0;
    }
  }
  if (kept < 1.0) {
    double scale = 1.0 / (1.0 - kept);
    for (double& p : *dist) p *= scale;
  }
}

}  // namespace

std::vector<double> ConditionalHeavyHitters::NextProductDistribution(
    const TokenSequence& history) const {
  // Deepest context with enough support wins; ultimate fallback is the
  // smoothed unigram distribution.
  int usable = std::min<int>(config_.context_depth,
                             static_cast<int>(history.size()));
  for (int depth = usable; depth >= 1; --depth) {
    const Token* context = history.data() + history.size() - depth;
    const ContextCounts* counts = FindContext(context, depth);
    if (counts == nullptr || counts->total < config_.min_context_support) {
      continue;
    }
    std::vector<double> dist(vocab_size_);
    double denom = static_cast<double>(counts->total) +
                   config_.add_k * static_cast<double>(vocab_size_);
    for (Token t = 0; t < vocab_size_; ++t) {
      auto jt = counts->successors.find(t);
      double joint = jt == counts->successors.end()
                         ? 0.0
                         : static_cast<double>(jt->second);
      dist[t] = (joint + config_.add_k) / denom;
    }
    ExcludeOwnedAndRenormalize(history, &dist);
    return dist;
  }
  std::vector<double> dist(vocab_size_);
  double denom = static_cast<double>(total_tokens_) +
                 config_.add_k * static_cast<double>(vocab_size_);
  for (Token t = 0; t < vocab_size_; ++t) {
    dist[t] = (static_cast<double>(unigram_[t]) + config_.add_k) / denom;
  }
  ExcludeOwnedAndRenormalize(history, &dist);
  return dist;
}

std::vector<ConditionalHeavyHitters::Rule>
ConditionalHeavyHitters::ExtractRules(double min_confidence) const {
  std::vector<Rule> rules;
  // Order-insensitive collect; the sort below is a total order (ties on
  // confidence fall through to support, context, item), so hash order
  // cannot leak into the returned ranking.
  // hlm-lint: allow(unordered-iter)
  for (const auto& [key, counts] : contexts_) {
    if (counts.total < config_.min_context_support) continue;
    // hlm-lint: allow(unordered-iter)
    for (const auto& [token, joint] : counts.successors) {
      double confidence =
          static_cast<double>(joint) / static_cast<double>(counts.total);
      if (confidence < min_confidence) continue;
      rules.push_back(Rule{UnpackContext(key), token, confidence,
                           counts.total});
    }
  }
  std::sort(rules.begin(), rules.end(), [](const Rule& a, const Rule& b) {
    if (a.confidence != b.confidence) return a.confidence > b.confidence;
    if (a.support != b.support) return a.support > b.support;
    if (a.context != b.context) return a.context < b.context;
    return a.item < b.item;
  });
  return rules;
}

ApproximateChh::ApproximateChh(int vocab_size, ChhConfig config,
                               size_t max_contexts, size_t sketch_capacity)
    : vocab_size_(vocab_size),
      config_(config),
      max_contexts_(max_contexts),
      sketch_capacity_(sketch_capacity),
      unigram_(vocab_size, 0) {
  HLM_CHECK_GT(max_contexts_, 0u);
  HLM_CHECK_GT(sketch_capacity_, 0u);
}

void ApproximateChh::ObserveSequence(const TokenSequence& sequence) {
  for (size_t i = 0; i < sequence.size(); ++i) {
    ++unigram_[sequence[i]];
    ++total_tokens_;
    for (int depth = 1; depth <= config_.context_depth; ++depth) {
      if (static_cast<size_t>(depth) > i) break;
      const Token* context = sequence.data() + i - depth;
      uint64_t key = ConditionalHeavyHitters::PackContext(context, depth);
      auto it = contexts_.find(key);
      if (it == contexts_.end()) {
        // Context dictionary full: drop new contexts (sparse-CHH style
        // admission; popular contexts were admitted early by Zipf).
        if (contexts_.size() >= max_contexts_) continue;
        it = contexts_.emplace(key, SketchedContext(sketch_capacity_)).first;
      }
      it->second.total += 1;
      it->second.sketch.Observe(sequence[i]);
    }
  }
}

void ApproximateChh::Train(const std::vector<TokenSequence>& sequences) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::TraceSpan train_span(
      "chh.train_approx",
      metrics.GetHistogram("hlm.chh.train_approx_seconds"));
  const long long tokens_before = total_tokens_;
  for (const TokenSequence& sequence : sequences) ObserveSequence(sequence);
  metrics.GetCounter("hlm.chh.tokens_total")
      ->Increment(total_tokens_ - tokens_before);
  HLM_LOG(Info) << "approximate chh trained: " << contexts_.size() << "/"
                << max_contexts_ << " sketched contexts, "
                << total_tokens_ - tokens_before << " tokens observed";
}

std::vector<double> ApproximateChh::NextProductDistribution(
    const TokenSequence& history) const {
  int usable = std::min<int>(config_.context_depth,
                             static_cast<int>(history.size()));
  for (int depth = usable; depth >= 1; --depth) {
    const Token* context = history.data() + history.size() - depth;
    uint64_t key = ConditionalHeavyHitters::PackContext(context, depth);
    auto it = contexts_.find(key);
    if (it == contexts_.end() ||
        it->second.total < config_.min_context_support) {
      continue;
    }
    std::vector<double> dist(vocab_size_);
    double denom = static_cast<double>(it->second.total) +
                   config_.add_k * static_cast<double>(vocab_size_);
    for (Token t = 0; t < vocab_size_; ++t) {
      dist[t] = (static_cast<double>(it->second.sketch.EstimatedCount(t)) +
                 config_.add_k) /
                denom;
    }
    ExcludeOwnedAndRenormalize(history, &dist);
    return dist;
  }
  std::vector<double> dist(vocab_size_);
  double denom = static_cast<double>(total_tokens_) +
                 config_.add_k * static_cast<double>(vocab_size_);
  for (Token t = 0; t < vocab_size_; ++t) {
    dist[t] = (static_cast<double>(unigram_[t]) + config_.add_k) / denom;
  }
  ExcludeOwnedAndRenormalize(history, &dist);
  return dist;
}

}  // namespace hlm::models
