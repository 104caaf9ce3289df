#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "corpus/company.h"
#include "corpus/corpus.h"
#include "corpus/corpus_io.h"
#include "corpus/duns.h"
#include "corpus/generator.h"
#include "corpus/integration.h"
#include "corpus/month.h"
#include "corpus/product_taxonomy.h"
#include "corpus/record_linkage.h"
#include "corpus/sic.h"
#include "corpus/tfidf.h"
#include "math/rng.h"

namespace hlm::corpus {
namespace {

// ---------------------------------------------------------------- Month

TEST(MonthTest, EpochAndArithmetic) {
  EXPECT_EQ(MakeMonth(1990, 1), 0);
  EXPECT_EQ(MakeMonth(1990, 12), 11);
  EXPECT_EQ(MakeMonth(1991, 1), 12);
  EXPECT_EQ(MakeMonth(2016, 1), kEndOfDataMonth);
}

TEST(MonthTest, FormatAndParseRoundTrip) {
  for (Month m : {0, 11, 12, 275, kEndOfDataMonth}) {
    auto parsed = ParseMonth(FormatMonth(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_EQ(FormatMonth(MakeMonth(2013, 1)), "2013-01");
}

TEST(MonthTest, ParseRejectsBadInput) {
  EXPECT_FALSE(ParseMonth("2013").ok());
  EXPECT_FALSE(ParseMonth("2013-13").ok());
  EXPECT_FALSE(ParseMonth("2013-00").ok());
  EXPECT_FALSE(ParseMonth("abcd-ef").ok());
}

// ------------------------------------------------------------- Taxonomy

TEST(TaxonomyTest, Has38CategoriesMatchingThePaper) {
  ProductTaxonomy taxonomy = ProductTaxonomy::Default();
  EXPECT_EQ(taxonomy.num_categories(), 38);
  // Spot-check Fig. 8/9 labels.
  EXPECT_TRUE(taxonomy.FindCategory("server_HW").ok());
  EXPECT_TRUE(taxonomy.FindCategory("mainframs").ok());  // paper's spelling
  EXPECT_TRUE(taxonomy.FindCategory("platform_as_a_service").ok());
  EXPECT_FALSE(taxonomy.FindCategory("not_a_category").ok());
}

TEST(TaxonomyTest, CategoryIdsAreDense) {
  ProductTaxonomy taxonomy = ProductTaxonomy::Default();
  for (int c = 0; c < taxonomy.num_categories(); ++c) {
    EXPECT_EQ(taxonomy.category(c).id, c);
  }
}

TEST(TaxonomyTest, HardwareCategoriesFlagged) {
  ProductTaxonomy taxonomy = ProductTaxonomy::Default();
  auto hardware = taxonomy.HardwareCategories();
  EXPECT_EQ(hardware.size(), 6u + 1u);  // 7 hardware categories
  auto id = taxonomy.FindCategory("server_HW");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(taxonomy.category(*id).is_hardware);
}

TEST(TaxonomyTest, EveryParentHasCategories) {
  ProductTaxonomy taxonomy = ProductTaxonomy::Default();
  int total = 0;
  for (int p = 0; p <= 4; ++p) {
    auto under = taxonomy.CategoriesUnder(static_cast<CategoryParent>(p));
    EXPECT_FALSE(under.empty());
    total += static_cast<int>(under.size());
  }
  EXPECT_EQ(total, 38);
}

TEST(TaxonomyTest, FourLevelHierarchyHasVendorProductTypes) {
  ProductTaxonomy taxonomy = ProductTaxonomy::Default(6);
  EXPECT_EQ(taxonomy.num_vendors(), 6);
  int types_seen = 0;
  for (int v = 0; v < taxonomy.num_vendors(); ++v) {
    for (int c = 0; c < taxonomy.num_categories(); ++c) {
      types_seen += static_cast<int>(taxonomy.product_types(v, c).size());
    }
  }
  EXPECT_GT(types_seen, 100);  // realistic partial catalogs
  EXPECT_TRUE(taxonomy.product_types(-1, 0).empty());
  EXPECT_TRUE(taxonomy.product_types(0, 99).empty());
}

// ------------------------------------------------------------------ SIC

TEST(SicTest, Has83Industries) {
  const SicRegistry& sic = SicRegistry::Default();
  EXPECT_EQ(sic.num_industries(), 83);
}

TEST(SicTest, LookupByCode) {
  const SicRegistry& sic = SicRegistry::Default();
  auto index = sic.IndexOfCode(80);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(sic.industry(*index).name, "Health Services");
  EXPECT_FALSE(sic.IndexOfCode(3).ok());
}

TEST(SicTest, CodesAreUniqueAndSorted) {
  const SicRegistry& sic = SicRegistry::Default();
  for (int i = 1; i < sic.num_industries(); ++i) {
    EXPECT_LT(sic.industry(i - 1).code, sic.industry(i).code);
  }
}

// ----------------------------------------------------------------- DUNS

TEST(DunsTest, FormatPadsToNineDigits) {
  EXPECT_EQ(FormatDuns(42), "000000042");
  EXPECT_EQ(FormatDuns(123456789), "123456789");
}

TEST(DunsTest, ParseRoundTrip) {
  auto parsed = ParseDuns("004217938");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, 4217938u);
  EXPECT_FALSE(ParseDuns("12345").ok());
  EXPECT_FALSE(ParseDuns("000000000").ok());
  EXPECT_FALSE(ParseDuns("12345678x").ok());
}

DunsRecord MakeRecord(Duns duns, Duns parent, Duns ultimate,
                      const std::string& country) {
  DunsRecord record;
  record.duns = duns;
  record.parent = parent;
  record.domestic_ultimate = ultimate;
  record.global_ultimate = ultimate;
  record.country = country;
  return record;
}

TEST(DunsRegistryTest, AggregationBySite) {
  DunsRegistry registry;
  ASSERT_TRUE(registry.Add(MakeRecord(100, 0, 100, "US")).ok());
  ASSERT_TRUE(registry.Add(MakeRecord(101, 100, 100, "US")).ok());
  ASSERT_TRUE(registry.Add(MakeRecord(102, 100, 100, "US")).ok());
  ASSERT_TRUE(registry.Add(MakeRecord(200, 0, 200, "DE")).ok());

  auto ultimate = registry.DomesticUltimateOf(102);
  ASSERT_TRUE(ultimate.ok());
  EXPECT_EQ(*ultimate, 100u);
  EXPECT_EQ(registry.SitesOfDomesticUltimate(100),
            (std::vector<Duns>{100, 101, 102}));
  EXPECT_TRUE(registry.Validate().ok());
}

TEST(DunsRegistryTest, RejectsDuplicatesAndZero) {
  DunsRegistry registry;
  ASSERT_TRUE(registry.Add(MakeRecord(100, 0, 100, "US")).ok());
  EXPECT_EQ(registry.Add(MakeRecord(100, 0, 100, "US")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.Add(MakeRecord(0, 0, 0, "US")).code(),
            StatusCode::kInvalidArgument);
}

TEST(DunsRegistryTest, ValidateCatchesDanglingAndCrossCountry) {
  DunsRegistry dangling;
  ASSERT_TRUE(dangling.Add(MakeRecord(101, 999, 101, "US")).ok());
  EXPECT_EQ(dangling.Validate().code(), StatusCode::kDataLoss);

  DunsRegistry cross;
  ASSERT_TRUE(cross.Add(MakeRecord(100, 0, 100, "US")).ok());
  ASSERT_TRUE(cross.Add(MakeRecord(101, 100, 100, "DE")).ok());
  EXPECT_EQ(cross.Validate().code(), StatusCode::kDataLoss);
}

// ----------------------------------------------------------- InstallBase

TEST(InstallBaseTest, ObserveKeepsEarliestSighting) {
  InstallBase base;
  base.Observe(3, MakeMonth(2005, 6));
  base.Observe(3, MakeMonth(2001, 2));  // earlier confirmation wins
  base.Observe(3, MakeMonth(2010, 1));  // later one ignored
  EXPECT_EQ(base.size(), 1u);
  EXPECT_EQ(base.FirstSeen(3), MakeMonth(2001, 2));
}

TEST(InstallBaseTest, SequenceSortedByTime) {
  InstallBase base;
  base.Observe(5, MakeMonth(2010, 1));
  base.Observe(2, MakeMonth(2000, 1));
  base.Observe(9, MakeMonth(2005, 1));
  EXPECT_EQ(base.Sequence(), (std::vector<CategoryId>{2, 9, 5}));
  EXPECT_EQ(base.Set(), (std::vector<CategoryId>{2, 5, 9}));
  EXPECT_EQ(base.mask(), (1u << 2) | (1u << 5) | (1u << 9));
}

TEST(InstallBaseTest, BeforeAndAppearedIn) {
  InstallBase base;
  base.Observe(1, MakeMonth(2000, 1));
  base.Observe(2, MakeMonth(2010, 1));
  base.Observe(3, MakeMonth(2014, 6));

  InstallBase before = base.Before(MakeMonth(2010, 1));
  EXPECT_EQ(before.Sequence(), (std::vector<CategoryId>{1}));

  auto in_window = base.AppearedIn(MakeMonth(2010, 1), MakeMonth(2015, 1));
  EXPECT_EQ(in_window, (std::vector<CategoryId>{2, 3}));
}

TEST(InstallBaseTest, BeforeMatchesObserveBuiltReference) {
  // Before() copies the timeline's prefix; the reference rebuilds the
  // sub-base one Observe() at a time, as the definition reads.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    InstallBase base;
    const int events = static_cast<int>(rng.NextInt(0, 20));
    for (int e = 0; e < events; ++e) {
      // Few distinct months, so months tie and categories repeat.
      base.Observe(static_cast<CategoryId>(rng.NextBounded(38)),
                   MakeMonth(2010, 1) + static_cast<Month>(rng.NextInt(0, 8)));
    }
    std::vector<Month> cutoffs = {MakeMonth(2000, 1), MakeMonth(2020, 1)};
    for (const auto& [month, category] : base.timeline()) {
      cutoffs.insert(cutoffs.end(), {month - 1, month, month + 1});
    }
    for (Month cutoff : cutoffs) {
      InstallBase reference;
      for (const auto& [month, category] : base.timeline()) {
        if (month < cutoff) reference.Observe(category, month);
      }
      InstallBase before = base.Before(cutoff);
      EXPECT_EQ(before.timeline(), reference.timeline()) << "cutoff " << cutoff;
      EXPECT_EQ(before.mask(), reference.mask()) << "cutoff " << cutoff;
    }
  }
}

TEST(InstallBaseTest, AggregateSitesUnionsAndKeepsEarliest) {
  Company company;
  company.sites.resize(2);
  company.sites[0].events.push_back({4, MakeMonth(2005, 1), 0, 1.0});
  company.sites[1].events.push_back({4, MakeMonth(2003, 1), 0, 1.0});
  company.sites[1].events.push_back({7, MakeMonth(2008, 1), 0, 1.0});
  InstallBase base = AggregateSites(company);
  EXPECT_EQ(base.size(), 2u);
  EXPECT_EQ(base.FirstSeen(4), MakeMonth(2003, 1));
  EXPECT_TRUE(base.Contains(7));
}

// --------------------------------------------------------------- Corpus

Corpus TinyCorpus() {
  Corpus corpus(ProductTaxonomy::Default());
  for (int i = 0; i < 10; ++i) {
    Company company;
    company.name = "Company " + std::to_string(i);
    company.domestic_duns = 1000 + i;
    company.country = "US";
    company.sites.resize(1);
    for (int p = 0; p <= i % 4; ++p) {
      company.sites[0].events.push_back(
          {(i + p * 3) % 38, MakeMonth(2000 + p, 1), 0, 1.0});
    }
    corpus.Add(std::move(company));
  }
  return corpus;
}

TEST(CorpusTest, AddAssignsDenseIds) {
  Corpus corpus = TinyCorpus();
  for (int i = 0; i < corpus.num_companies(); ++i) {
    EXPECT_EQ(corpus.record(i).company.id, i);
  }
}

TEST(CorpusTest, BinaryMatrixMatchesMasks) {
  Corpus corpus = TinyCorpus();
  auto matrix = corpus.BinaryMatrix();
  auto masks = corpus.Masks();
  for (int i = 0; i < corpus.num_companies(); ++i) {
    for (int c = 0; c < corpus.num_categories(); ++c) {
      EXPECT_EQ(matrix[i][c] == 1.0, ((masks[i] >> c) & 1u) == 1u);
    }
  }
}

TEST(CorpusTest, SplitPartitionsExactly) {
  Corpus corpus = TinyCorpus();
  Rng rng(5);
  SplitIndices split = corpus.Split(0.7, 0.1, &rng);
  EXPECT_EQ(split.train.size() + split.valid.size() + split.test.size(),
            static_cast<size_t>(corpus.num_companies()));
  std::vector<bool> seen(corpus.num_companies(), false);
  for (auto part : {&split.train, &split.valid, &split.test}) {
    for (int index : *part) {
      EXPECT_FALSE(seen[index]);
      seen[index] = true;
    }
  }
}

TEST(CorpusTest, SubsetPreservesMetadata) {
  Corpus corpus = TinyCorpus();
  Corpus subset = corpus.Subset({3, 7});
  EXPECT_EQ(subset.num_companies(), 2);
  EXPECT_EQ(subset.record(0).company.name, "Company 3");
  EXPECT_EQ(subset.record(1).company.name, "Company 7");
  EXPECT_EQ(subset.record(0).install_base.mask(),
            corpus.record(3).install_base.mask());
}

TEST(CorpusTest, CategoryStatsConsistent) {
  Corpus corpus = TinyCorpus();
  CategoryStats stats = corpus.ComputeCategoryStats();
  long long df_total = 0;
  for (long long df : stats.document_frequency) df_total += df;
  double size_total = 0.0;
  for (const auto& record : corpus.records()) {
    size_total += static_cast<double>(record.install_base.size());
  }
  EXPECT_EQ(df_total, static_cast<long long>(size_total));
  EXPECT_NEAR(stats.mean_install_base_size,
              size_total / corpus.num_companies(), 1e-12);
}

// ---------------------------------------------------------------- TFIDF

TEST(TfidfTest, RareCategoriesWeighMore) {
  Corpus corpus = TinyCorpus();
  CategoryStats stats = corpus.ComputeCategoryStats();
  TfidfModel model = TfidfModel::Fit(corpus);
  // Find a frequent and an infrequent category present in the corpus.
  int frequent = -1, rare = -1;
  for (int c = 0; c < corpus.num_categories(); ++c) {
    if (stats.document_frequency[c] == 0) continue;
    if (frequent == -1 ||
        stats.document_frequency[c] > stats.document_frequency[frequent]) {
      frequent = c;
    }
    if (rare == -1 ||
        stats.document_frequency[c] < stats.document_frequency[rare]) {
      rare = c;
    }
  }
  ASSERT_NE(frequent, -1);
  ASSERT_NE(rare, -1);
  if (stats.document_frequency[rare] < stats.document_frequency[frequent]) {
    EXPECT_GT(model.idf()[rare], model.idf()[frequent]);
  }
}

TEST(TfidfTest, TransformZeroesAbsentCategories) {
  Corpus corpus = TinyCorpus();
  TfidfModel model = TfidfModel::Fit(corpus);
  auto rows = model.TransformAll(corpus);
  for (int i = 0; i < corpus.num_companies(); ++i) {
    for (int c = 0; c < corpus.num_categories(); ++c) {
      bool present = corpus.record(i).install_base.Contains(c);
      EXPECT_EQ(rows[i][c] > 0.0, present);
    }
  }
}

// ------------------------------------------------------------ Corpus IO

TEST(CorpusIoTest, SaveLoadRoundTrip) {
  auto generated = GenerateDefaultCorpus(40, 7);
  std::string dir = ::testing::TempDir() + "/hlm_corpus_io";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveCorpusCsv(generated.corpus, dir).ok());
  auto loaded = LoadCorpusCsv(dir);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_companies(), generated.corpus.num_companies());
  for (int i = 0; i < loaded->num_companies(); ++i) {
    const CompanyRecord& original = generated.corpus.record(i);
    const CompanyRecord& restored = loaded->record(i);
    EXPECT_EQ(restored.company.name, original.company.name);
    EXPECT_EQ(restored.company.sic2_code, original.company.sic2_code);
    EXPECT_EQ(restored.company.domestic_duns, original.company.domestic_duns);
    EXPECT_EQ(restored.install_base.mask(), original.install_base.mask());
    EXPECT_EQ(restored.install_base.Sequence(),
              original.install_base.Sequence());
  }
  std::filesystem::remove_all(dir);
}

TEST(CorpusIoTest, LoadMissingDirectoryFails) {
  EXPECT_FALSE(LoadCorpusCsv("/nonexistent/dir").ok());
}

// --------------------------------------------------------- RecordLinkage

TEST(RecordLinkageTest, ExactAndFuzzyMatches) {
  Corpus corpus(ProductTaxonomy::Default());
  for (const char* name :
       {"Acme Dynamics Inc.", "Zenith Logistics Corp.", "Harbor Foods LLC"}) {
    Company company;
    company.name = name;
    company.country = "US";
    company.domestic_duns = 1;
    corpus.Add(std::move(company));
  }
  RecordLinker linker(corpus);

  // Exact after normalization.
  auto exact = linker.LinkOne({"ACME DYNAMICS", "US"}, 0.9);
  EXPECT_EQ(exact.company_id, 0);
  EXPECT_DOUBLE_EQ(exact.score, 1.0);

  // Fuzzy: small typo.
  auto fuzzy = linker.LinkOne({"Zenth Logistics", "US"}, 0.85);
  EXPECT_EQ(fuzzy.company_id, 1);
  EXPECT_LT(fuzzy.score, 1.0);

  // Country filter blocks the match.
  auto wrong_country = linker.LinkOne({"Acme Dynamics", "DE"}, 0.85);
  EXPECT_EQ(wrong_country.company_id, -1);

  // Garbage does not match.
  auto garbage = linker.LinkOne({"Qqq Zzz Totally Different", "US"}, 0.9);
  EXPECT_EQ(garbage.company_id, -1);
}

TEST(RecordLinkageTest, BatchLinkSkipsUnmatched) {
  Corpus corpus(ProductTaxonomy::Default());
  Company company;
  company.name = "Pacific Energy Group";
  company.country = "US";
  corpus.Add(std::move(company));
  RecordLinker linker(corpus);
  std::vector<ExternalCompanyRef> refs = {{"Pacific Energy", "US"},
                                          {"Unrelated Name Xyz", "US"}};
  auto links = linker.Link(refs, 0.9);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].external_index, 0);
  EXPECT_EQ(links[0].company_id, 0);
}

// ------------------------------------------------------------ Integration

TEST(IntegrationTest, SimulatedInternalDbLinksBack) {
  auto generated = GenerateDefaultCorpus(300, 11);
  InternalDbOptions options;
  options.client_fraction = 0.3;
  InternalDatabase db = SimulateInternalDatabase(generated.corpus, options);
  EXPECT_GT(db.clients.size(), 40u);
  int resolved = LinkInternalDatabase(generated.corpus, &db, 0.88);
  // Name noise is mild; the vast majority must link back.
  EXPECT_GT(resolved, static_cast<int>(db.clients.size() * 0.7));
}

TEST(IntegrationTest, WhiteSpaceGapExcludesOwned) {
  InstallBase prospect;
  prospect.Observe(1, 0);
  prospect.Observe(2, 0);
  InstallBase similar;
  similar.Observe(2, 0);
  similar.Observe(5, 0);
  similar.Observe(9, 0);
  EXPECT_EQ(WhiteSpaceGap(prospect, similar),
            (std::vector<CategoryId>{5, 9}));
}

}  // namespace
}  // namespace hlm::corpus
