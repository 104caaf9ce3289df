#ifndef HLM_RECSYS_SIMILARITY_SEARCH_H_
#define HLM_RECSYS_SIMILARITY_SEARCH_H_

#include <functional>
#include <vector>

#include "cluster/distance.h"
#include "common/status.h"

namespace hlm::recsys {

/// One similarity hit.
struct Neighbor {
  int company_id = -1;
  double distance = 0.0;
};

/// Brute-force top-k nearest-company search over representation vectors
/// (Eq. 5: dist(c_i, c_j) = d(B_i, B_j)). Company representations are
/// fixed at construction; queries may be an existing company or an
/// arbitrary vector, with an optional filter predicate (the sales tool's
/// industry/location/size filters plug in there).
///
/// Row widths are validated at construction: a ragged matrix poisons the
/// index and every query on it fails with InvalidArgument instead of
/// computing distances over mismatched rows. Query dimensionality is
/// checked unconditionally — an empty index has dimension 0, so any
/// non-empty query vector is a mismatch, not a silent empty result.
///
/// Construction copies the representations into one contiguous
/// row-major block, the index's only copy of them, and caches each
/// row's euclidean norm. The source matrix may be destroyed once the
/// constructor returns. A query scans the rows in tiles: cosine tiles
/// are one simd::ScoreBlock call plus one simd::CosineDistances call
/// over the cached norms, euclidean tiles one SquaredDistance per row.
/// Each distance is bit-identical to per-row CosineDistance /
/// EuclideanDistance: the block kernel's dot obeys the same lane-blocked
/// contract and the norms are the same sqrt(SquaredNorm) values.
///
/// Selection keeps a bounded max-heap of min(k, size()) hits ordered by
/// (distance, company_id), so the result is exactly the first k rows of
/// a full sort by that key. A row farther than the heap's current worst
/// is dropped before the filter runs, so the filter must be a pure
/// predicate of the company id: it is called only for rows that could
/// still enter the result, in ascending id order, and not for the query
/// row of TopK.
class SimilaritySearch {
 public:
  SimilaritySearch(const std::vector<std::vector<double>>& representations,
                   cluster::DistanceKind kind);

  int size() const { return size_; }

  /// Representation width all queries must match (0 for an empty index).
  int dim() const { return dim_; }

  /// k nearest companies to company `query_id`, excluding itself.
  Result<std::vector<Neighbor>> TopK(
      int query_id, int k,
      const std::function<bool(int)>& filter = nullptr) const;

  /// k nearest companies to an arbitrary representation vector.
  Result<std::vector<Neighbor>> TopKForVector(
      const std::vector<double>& query, int k,
      const std::function<bool(int)>& filter = nullptr) const;

 private:
  /// TopKForVector over a query of `query_size` doubles at `query`,
  /// skipping row `exclude` (-1 skips nothing).
  Result<std::vector<Neighbor>> TopKForRow(
      const double* query, size_t query_size, int k,
      const std::function<bool(int)>& filter, int exclude) const;

  cluster::DistanceKind kind_;
  int size_ = 0;
  int dim_ = 0;
  bool ragged_ = false;
  // Row-major representations (size_ * dim_ doubles) plus per-row
  // euclidean norms, both fixed at construction. Empty when the matrix
  // is ragged (queries fail before touching them).
  std::vector<double> flat_;
  std::vector<double> norms_;
};

}  // namespace hlm::recsys

#endif  // HLM_RECSYS_SIMILARITY_SEARCH_H_
