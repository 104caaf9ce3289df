#ifndef HLM_APP_SALES_TOOL_H_
#define HLM_APP_SALES_TOOL_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "corpus/corpus.h"
#include "corpus/integration.h"
#include "recsys/similarity_search.h"

namespace hlm::app {

/// Filters the deployed tool exposes next to global similarity search
/// (§6: "filtering capabilities based on industry, location, number of
/// employees and revenue"). Unset fields do not constrain.
struct CompanyFilter {
  std::optional<int> sic2_code;
  std::optional<std::string> country;
  std::optional<long long> min_employees;
  std::optional<long long> max_employees;
  std::optional<double> min_revenue_musd;
  std::optional<double> max_revenue_musd;

  bool Matches(const corpus::Company& company) const;
};

/// A product recommendation produced by the tool.
struct ProductRecommendation {
  corpus::CategoryId category = 0;
  /// Fraction of the top-k similar companies owning the category.
  double similar_ownership = 0.0;
  /// Whether any similar company buys this category *from us* per the
  /// internal database (strengthens the sales case).
  bool internally_validated = false;
};

/// The sales recommendation application of §6: company similarity search
/// on learned (LDA) representations over HG-style data, enriched with the
/// provider's internal client database to surface white-space products.
class SalesRecommendationTool {
 public:
  /// `representations` must align with corpus order (typically the LDA
  /// topic mixtures). The internal database must already be linked
  /// (LinkInternalDatabase).
  SalesRecommendationTool(
      const corpus::Corpus* corpus,
      const std::vector<std::vector<double>>& representations,
      corpus::InternalDatabase internal_db);

  /// Top-k companies most similar to `company_id`, optionally filtered.
  Result<std::vector<recsys::Neighbor>> FindSimilarCompanies(
      int company_id, int k, const CompanyFilter& filter = {}) const;

  /// White-space recommendations for a prospect: categories the prospect
  /// lacks, ranked by ownership among its top-k similar companies, and
  /// flagged when the internal database confirms we already sell that
  /// category to a similar company.
  ///
  /// When the filter matches no companies at all this is NotFound, not an
  /// empty OK list — an empty OK list means the comparison set exists but
  /// the prospect already owns everything it owns, which calls for a
  /// different sales conversation than an over-tight filter.
  Result<std::vector<ProductRecommendation>> RecommendProducts(
      int company_id, int k, const CompanyFilter& filter = {}) const;

  const corpus::InternalDatabase& internal_db() const { return internal_db_; }

 private:
  const corpus::Corpus* corpus_;
  recsys::SimilaritySearch search_;
  corpus::InternalDatabase internal_db_;
  /// company id -> indices into internal_db_.clients (resolved links).
  std::vector<std::vector<int>> company_clients_;
};

}  // namespace hlm::app

#endif  // HLM_APP_SALES_TOOL_H_
