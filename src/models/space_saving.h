#ifndef HLM_MODELS_SPACE_SAVING_H_
#define HLM_MODELS_SPACE_SAVING_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "models/model.h"

namespace hlm::models {

/// SpaceSaving heavy-hitter sketch (Metwally et al.): tracks up to
/// `capacity` items with count over-estimates bounded by the minimum
/// tracked count. Used by the approximate Conditional-Heavy-Hitters
/// variant ([17]'s streaming algorithms) to bound per-context state.
class SpaceSavingSketch {
 public:
  explicit SpaceSavingSketch(size_t capacity);

  void Observe(Token item, long long weight = 1);

  /// Estimated count (upper bound) of an item; 0 if never tracked.
  long long EstimatedCount(Token item) const;

  /// Maximum over-estimation error of any reported count.
  long long MaxError() const { return min_count_; }

  long long total_observed() const { return total_; }

  struct Entry {
    Token item;
    long long count;  // over-estimate
    long long error;  // count was at most `error` too high
  };

  /// Tracked items sorted by descending estimated count.
  std::vector<Entry> HeavyHitters() const;

  size_t size() const { return counts_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  long long total_ = 0;
  long long min_count_ = 0;
  std::unordered_map<Token, Entry> counts_;
};

}  // namespace hlm::models

#endif  // HLM_MODELS_SPACE_SAVING_H_
