#include "corpus/company.h"

#include <algorithm>

#include "common/check.h"

namespace hlm::corpus {

void InstallBase::Observe(CategoryId category, Month first_seen) {
  HLM_CHECK_GE(category, 0);
  HLM_CHECK_LT(category, 64);
  if (Contains(category)) {
    for (auto& [month, cat] : timeline_) {
      if (cat == category && first_seen < month) {
        month = first_seen;
        Resort();
        break;
      }
    }
    return;
  }
  mask_ |= (uint64_t{1} << category);
  timeline_.emplace_back(first_seen, category);
  Resort();
}

void InstallBase::Resort() {
  std::sort(timeline_.begin(), timeline_.end());
}

std::vector<CategoryId> InstallBase::Sequence() const {
  std::vector<CategoryId> sequence;
  sequence.reserve(timeline_.size());
  for (const auto& [month, category] : timeline_) sequence.push_back(category);
  return sequence;
}

std::vector<CategoryId> InstallBase::Set() const {
  std::vector<CategoryId> set;
  set.reserve(timeline_.size());
  for (int c = 0; c < 64; ++c) {
    if (Contains(c)) set.push_back(c);
  }
  return set;
}

Month InstallBase::FirstSeen(CategoryId category) const {
  for (const auto& [month, cat] : timeline_) {
    if (cat == category) return month;
  }
  return -1;
}

InstallBase InstallBase::Before(Month cutoff) const {
  // The timeline is sorted by month and holds each category once, so the
  // sub-base is its prefix of months before the cutoff.
  auto end = std::partition_point(
      timeline_.begin(), timeline_.end(),
      [cutoff](const auto& entry) { return entry.first < cutoff; });
  InstallBase base;
  base.timeline_.assign(timeline_.begin(), end);
  for (const auto& entry : base.timeline_) {
    base.mask_ |= uint64_t{1} << entry.second;
  }
  return base;
}

std::vector<CategoryId> InstallBase::AppearedIn(Month start, Month end) const {
  std::vector<CategoryId> out;
  for (const auto& [month, category] : timeline_) {
    if (month >= start && month < end) out.push_back(category);
  }
  return out;
}

InstallBase AggregateSites(const Company& company) {
  InstallBase base;
  for (const CompanySite& site : company.sites) {
    for (const InstallEvent& event : site.events) {
      base.Observe(event.category, event.first_seen);
    }
  }
  return base;
}

}  // namespace hlm::corpus
