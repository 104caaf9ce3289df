#include "app/sales_tool.h"

#include <algorithm>

#include "cluster/distance.h"

namespace hlm::app {

bool CompanyFilter::Matches(const corpus::Company& company) const {
  if (sic2_code.has_value() && company.sic2_code != *sic2_code) return false;
  if (country.has_value() && company.country != *country) return false;
  if (min_employees.has_value() && company.employees < *min_employees) {
    return false;
  }
  if (max_employees.has_value() && company.employees > *max_employees) {
    return false;
  }
  if (min_revenue_musd.has_value() &&
      company.revenue_musd < *min_revenue_musd) {
    return false;
  }
  if (max_revenue_musd.has_value() &&
      company.revenue_musd > *max_revenue_musd) {
    return false;
  }
  return true;
}

SalesRecommendationTool::SalesRecommendationTool(
    const corpus::Corpus* corpus,
    const std::vector<std::vector<double>>& representations,
    corpus::InternalDatabase internal_db)
    : corpus_(corpus),
      search_(representations, cluster::DistanceKind::kCosine),
      internal_db_(std::move(internal_db)) {
  company_clients_.resize(corpus_->num_companies());
  for (size_t client = 0; client < internal_db_.linked_company.size();
       ++client) {
    int company = internal_db_.linked_company[client];
    if (company >= 0 && company < corpus_->num_companies()) {
      company_clients_[company].push_back(static_cast<int>(client));
    }
  }
}

Result<std::vector<recsys::Neighbor>>
SalesRecommendationTool::FindSimilarCompanies(int company_id, int k,
                                              const CompanyFilter& filter)
    const {
  auto predicate = [this, &filter](int candidate) {
    return filter.Matches(corpus_->record(candidate).company);
  };
  return search_.TopK(company_id, k, predicate);
}

Result<std::vector<ProductRecommendation>>
SalesRecommendationTool::RecommendProducts(int company_id, int k,
                                           const CompanyFilter& filter) const {
  if (company_id < 0 || company_id >= corpus_->num_companies()) {
    return Status::OutOfRange("company id out of range");
  }
  HLM_ASSIGN_OR_RETURN(auto neighbors,
                       FindSimilarCompanies(company_id, k, filter));
  if (neighbors.empty()) {
    return Status::NotFound(
        "no companies match the similarity filter; relax the filter "
        "constraints");
  }
  const corpus::InstallBase& prospect =
      corpus_->record(company_id).install_base;

  const int m = corpus_->num_categories();
  std::vector<int> ownership(m, 0);
  std::vector<bool> internal(m, false);
  for (const recsys::Neighbor& neighbor : neighbors) {
    const corpus::InstallBase& base =
        corpus_->record(neighbor.company_id).install_base;
    for (corpus::CategoryId category : base.Set()) {
      ++ownership[category];
    }
    for (int client : company_clients_[neighbor.company_id]) {
      for (corpus::CategoryId category :
           internal_db_.clients[client].purchased_from_us) {
        internal[category] = true;
      }
    }
  }

  std::vector<ProductRecommendation> recommendations;
  for (int c = 0; c < m; ++c) {
    if (prospect.Contains(c) || ownership[c] == 0) continue;
    ProductRecommendation rec;
    rec.category = c;
    rec.similar_ownership = static_cast<double>(ownership[c]) /
                            static_cast<double>(neighbors.size());
    rec.internally_validated = internal[c];
    recommendations.push_back(rec);
  }
  std::sort(recommendations.begin(), recommendations.end(),
            [](const ProductRecommendation& a, const ProductRecommendation& b) {
              if (a.similar_ownership != b.similar_ownership) {
                return a.similar_ownership > b.similar_ownership;
              }
              if (a.internally_validated != b.internally_validated) {
                return a.internally_validated;
              }
              return a.category < b.category;
            });
  return recommendations;
}

}  // namespace hlm::app
