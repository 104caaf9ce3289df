#include "recsys/similarity_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/arena.h"
#include "math/simd/kernels.h"
#include "obs/errors.h"
#include "obs/metrics.h"

namespace hlm::recsys {

namespace {

// Rows scored per tile. Sized so a tile of rows plus its dot and
// distance buffers stay cache-resident at the representation widths in
// play (tens to a few hundred dims).
constexpr int kTileItems = 128;

// The result order: ascending distance, ties by ascending company id.
bool CloserThan(const Neighbor& a, const Neighbor& b) {
  return a.distance < b.distance ||
         (a.distance == b.distance && a.company_id < b.company_id);
}

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
  // A ragged index has no flat rows; the empty query still reaches the
  // ragged check, so TopK fails exactly like TopKForVector.
  if (ragged_) return TopKForRow(nullptr, 0, k, filter, query_id);
  const size_t d = static_cast<size_t>(dim_);
  return TopKForRow(flat_.data() + query_id * d, d, k, filter, query_id);
}

Result<std::vector<Neighbor>> SimilaritySearch::TopKForVector(
    const std::vector<double>& query, int k,
    const std::function<bool(int)>& filter) const {
  return TopKForRow(query.data(), query.size(), k, filter, -1);
}

Result<std::vector<Neighbor>> SimilaritySearch::TopKForRow(
    const double* query, size_t query_size, int k,
    const std::function<bool(int)>& filter, int exclude) const {
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
  // Max-heap of the best `filled` hits so far, worst (by distance, then
  // id) at the front. Bounded by the index, so a huge k costs nothing.
  const size_t keep = std::min<size_t>(k, size_);
  std::vector<Neighbor> heap(keep);
  size_t filled = 0;
  // Distance of heap.front() once the heap is full; a row farther than
  // this can never enter, so it skips the filter and the heap entirely.
  double worst = std::numeric_limits<double>::infinity();
  const size_t d = static_cast<size_t>(dim_);
  const double query_norm = kind_ == cluster::DistanceKind::kCosine
                                ? std::sqrt(simd::SquaredNorm(query, d))
                                : 0.0;
  Arena& arena = ScratchArena();
  arena.Reset();
  double* dots = arena.AllocDoubles(kTileItems);
  double* distances = arena.AllocDoubles(kTileItems);
  // hlm-lint: hot-path begin (tile scan: the serving-path inner loop;
  // tiles live in the scratch arena, the heap is sized above)
  for (int start = 0; start < size(); start += kTileItems) {
    const int count = std::min(kTileItems, size() - start);
    const double* rows = flat_.data() + start * d;
    if (kind_ == cluster::DistanceKind::kCosine) {
      simd::ScoreBlock(query, 1, rows, count, d, dots);
      simd::CosineDistances(dots, query_norm, norms_.data() + start, distances,
                            count);
    } else {
      for (int j = 0; j < count; ++j) {
        distances[j] =
            std::sqrt(simd::SquaredDistance(query, rows + j * d, d));
      }
    }
    for (int j = 0; j < count; ++j) {
      if (distances[j] > worst) continue;
      const int i = start + j;
      if (i == exclude || (filter != nullptr && !filter(i))) continue;
      const Neighbor hit{i, distances[j]};
      if (filled < keep) {
        heap[filled++] = hit;
        std::push_heap(heap.begin(), heap.begin() + filled, CloserThan);
      } else if (CloserThan(hit, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), CloserThan);
        heap.back() = hit;
        std::push_heap(heap.begin(), heap.end(), CloserThan);
      } else {
        continue;
      }
      if (filled == keep) worst = heap.front().distance;
    }
  }
  // hlm-lint: hot-path end
  heap.resize(filled);
  std::sort_heap(heap.begin(), heap.end(), CloserThan);
  return heap;
}

}  // namespace hlm::recsys
