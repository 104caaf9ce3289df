#include "recsys/similarity_search.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/arena.h"
#include "math/simd/kernels.h"
#include "obs/errors.h"
#include "obs/metrics.h"

namespace hlm::recsys {

namespace {

// Items scored per ScoreBlock call. Sized so a tile of rows plus the dot
// buffer stays cache-resident at the representation widths in play
// (tens to a few hundred dims).
constexpr int kTileItems = 128;

}  // namespace

SimilaritySearch::SimilaritySearch(
    const std::vector<std::vector<double>>& representations,
    cluster::DistanceKind kind)
    : kind_(kind), size_(static_cast<int>(representations.size())) {
  if (!representations.empty()) {
    dim_ = static_cast<int>(representations[0].size());
    for (const std::vector<double>& row : representations) {
      if (static_cast<int>(row.size()) != dim_) {
        ragged_ = true;
        break;
      }
    }
  }
  if (ragged_) return;
  // Flatten once and cache row norms so queries never recompute them
  // (Eq. 5 scans touch every row; the norms are query-invariant).
  flat_.reserve(representations.size() * static_cast<size_t>(dim_));
  norms_.reserve(representations.size());
  for (const std::vector<double>& row : representations) {
    flat_.insert(flat_.end(), row.begin(), row.end());
    norms_.push_back(std::sqrt(simd::SquaredNorm(row.data(), row.size())));
  }
}

Result<std::vector<Neighbor>> SimilaritySearch::TopK(
    int query_id, int k, const std::function<bool(int)>& filter) const {
  if (query_id < 0 || query_id >= size()) {
    return obs::TrackError(
        "recsys", Status::OutOfRange("query company id out of range"));
  }
  auto self_excluding_filter = [query_id, &filter](int candidate) {
    if (candidate == query_id) return false;
    return filter == nullptr || filter(candidate);
  };
  // A ragged index has no flat rows; the empty query still reaches the
  // ragged check, so TopK fails exactly like TopKForVector.
  if (ragged_) return TopKForRow(nullptr, 0, k, self_excluding_filter);
  const size_t d = static_cast<size_t>(dim_);
  return TopKForRow(flat_.data() + query_id * d, d, k,
                    self_excluding_filter);
}

Result<std::vector<Neighbor>> SimilaritySearch::TopKForVector(
    const std::vector<double>& query, int k,
    const std::function<bool(int)>& filter) const {
  return TopKForRow(query.data(), query.size(), k, filter);
}

Result<std::vector<Neighbor>> SimilaritySearch::TopKForRow(
    const double* query, size_t query_size, int k,
    const std::function<bool(int)>& filter) const {
  // Serving hot path: pointers resolved once, then lock-free mutation.
  static obs::Histogram* query_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "hlm.recsys.similarity_query_seconds");
  static obs::Counter* queries_total =
      obs::MetricsRegistry::Global().GetCounter(
          "hlm.recsys.similarity_queries_total");
  obs::ScopedTimer timer(query_seconds);
  queries_total->Increment();
  if (k <= 0) {
    return obs::TrackError("recsys",
                           Status::InvalidArgument("k must be positive"));
  }
  if (ragged_) {
    return obs::TrackError(
        "recsys",
        Status::InvalidArgument(
            "representation matrix is ragged: rows differ in width"));
  }
  if (static_cast<int>(query_size) != dim_) {
    return obs::TrackError(
        "recsys",
        Status::InvalidArgument(
            "query dimensionality mismatch: query has " +
            std::to_string(query_size) + " dims, index has " +
            std::to_string(dim_)));
  }
  std::vector<Neighbor> neighbors;
  neighbors.reserve(static_cast<size_t>(size_));
  const size_t d = static_cast<size_t>(dim_);
  if (kind_ == cluster::DistanceKind::kCosine) {
    // Tiled block scan: one ScoreBlock call scores a whole tile of rows
    // against the query, then cached norms turn dots into distances.
    // Filtered rows are dropped after scoring — the filter decides
    // membership, not whether a lane gets computed.
    const double query_norm = std::sqrt(simd::SquaredNorm(query, d));
    Arena& arena = ScratchArena();
    arena.Reset();
    double* dots = arena.AllocDoubles(kTileItems);
    // hlm-lint: hot-path begin (ScoreBlock tile scan: the serving-path
    // inner loop; dots live in the scratch arena, neighbors capacity is
    // reserved above)
    for (int start = 0; start < size(); start += kTileItems) {
      const int count = std::min(kTileItems, size() - start);
      simd::ScoreBlock(query, 1, flat_.data() + start * d, count, d, dots);
      for (int j = 0; j < count; ++j) {
        const int i = start + j;
        if (filter != nullptr && !filter(i)) continue;
        const double row_norm = norms_[i];
        const double distance =
            (query_norm == 0.0 || row_norm == 0.0)
                ? 1.0
                : 1.0 - dots[j] / (query_norm * row_norm);
        // Never reallocates: capacity reserved to the full row count
        // before the scan.
        // hlm-lint: allow(hot-path-alloc)
        neighbors.push_back(Neighbor{i, distance});
      }
    }
    // hlm-lint: hot-path end
  } else {
    for (int i = 0; i < size(); ++i) {
      if (filter != nullptr && !filter(i)) continue;
      const double distance = std::sqrt(
          simd::SquaredDistance(query, flat_.data() + i * d, d));
      neighbors.push_back(Neighbor{i, distance});
    }
  }
  size_t keep = std::min<size_t>(k, neighbors.size());
  std::partial_sort(neighbors.begin(), neighbors.begin() + keep,
                    neighbors.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.distance < b.distance ||
                             (a.distance == b.distance &&
                              a.company_id < b.company_id);
                    });
  neighbors.resize(keep);
  return neighbors;
}

}  // namespace hlm::recsys
