#include "models/space_saving.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace hlm::models {

SpaceSavingSketch::SpaceSavingSketch(size_t capacity) : capacity_(capacity) {
  HLM_CHECK_GT(capacity_, 0u);
}

void SpaceSavingSketch::Observe(Token item, long long weight) {
  total_ += weight;
  auto it = counts_.find(item);
  if (it != counts_.end()) {
    it->second.count += weight;
    return;
  }
  if (counts_.size() < capacity_) {
    counts_[item] = Entry{item, weight, 0};
    return;
  }
  // Evict the minimum-count entry; the newcomer inherits its count as the
  // classic SpaceSaving over-estimate. Ties break on the smaller token id
  // so the victim never depends on hash-map order.
  // hlm-lint: allow(unordered-iter)
  auto min_it = counts_.begin();
  for (auto cursor = counts_.begin();  // hlm-lint: allow(unordered-iter)
       cursor != counts_.end(); ++cursor) {
    if (cursor->second.count < min_it->second.count ||
        (cursor->second.count == min_it->second.count &&
         cursor->first < min_it->first)) {
      min_it = cursor;
    }
  }
  long long inherited = min_it->second.count;
  counts_.erase(min_it);
  counts_[item] = Entry{item, inherited + weight, inherited};
  min_count_ = std::max(min_count_, inherited);
}

long long SpaceSavingSketch::EstimatedCount(Token item) const {
  auto it = counts_.find(item);
  return it == counts_.end() ? 0 : it->second.count;
}

std::vector<SpaceSavingSketch::Entry> SpaceSavingSketch::HeavyHitters() const {
  std::vector<Entry> entries;
  entries.reserve(counts_.size());
  // Order-insensitive collect; the sort below breaks count ties on the
  // token id, so hash order cannot leak into the returned ranking.
  // hlm-lint: allow(unordered-iter)
  for (const auto& [item, entry] : counts_) entries.push_back(entry);
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.item < b.item;
  });
  return entries;
}

}  // namespace hlm::models
