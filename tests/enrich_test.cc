#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "discovery/corpus.h"
#include "enrich/d4.h"
#include "enrich/domain_net.h"
#include "enrich/rfd.h"
#include "workload/generator.h"

namespace lakekit::enrich {
namespace {

// ---------------------------------------------------------------- D4

class DomainLakeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::DomainLakeOptions options;
    options.num_domains = 4;
    options.num_tables = 16;
    options.rows_per_table = 120;
    options.num_homographs = 2;
    lake_ = new workload::DomainLake(workload::MakeDomainLake(options));
    corpus_ = new discovery::Corpus();
    for (const auto& t : lake_->tables) {
      ASSERT_TRUE(corpus_->AddTable(t).ok());
    }
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete lake_;
  }
  static workload::DomainLake* lake_;
  static discovery::Corpus* corpus_;
};

workload::DomainLake* DomainLakeTest::lake_ = nullptr;
discovery::Corpus* DomainLakeTest::corpus_ = nullptr;

TEST_F(DomainLakeTest, D4RecoversPlantedDomains) {
  D4DomainDiscovery d4;
  auto domains = d4.Discover(*corpus_);
  // Expect one discovered domain per planted domain that actually appears
  // in a column (all 4 appear in a 16-table lake with high probability).
  ASSERT_GE(domains.size(), 3u);
  // Each discovered domain's terms should be overwhelmingly from one
  // planted domain.
  for (const Domain& d : domains) {
    std::map<std::string, size_t> votes;  // planted domain -> count
    for (const std::string& term : d.terms) {
      for (const auto& [planted, terms] : lake_->domains) {
        for (const std::string& pt : terms) {
          if (pt == term) ++votes[planted];
        }
      }
    }
    ASSERT_FALSE(votes.empty());
    size_t best = 0;
    size_t total = 0;
    for (const auto& [planted, count] : votes) {
      best = std::max(best, count);
      total += count;
    }
    EXPECT_GE(static_cast<double>(best) / static_cast<double>(total), 0.8);
  }
}

TEST_F(DomainLakeTest, D4AmbiguousTermJoinsMultipleDomains) {
  D4DomainDiscovery d4;
  auto domains = d4.Discover(*corpus_);
  // The planted homographs live in two domains; DomainsOfTerm should find
  // them in >= 1 discovered domain (2 when both domains surfaced).
  for (const std::string& h : lake_->homographs) {
    auto ids = D4DomainDiscovery::DomainsOfTerm(domains, h);
    EXPECT_GE(ids.size(), 1u) << h;
  }
  // A non-homograph term appears in at most one domain.
  auto ids = D4DomainDiscovery::DomainsOfTerm(domains, "dom0_term0");
  EXPECT_LE(ids.size(), 1u);
}

TEST(D4SmallTest, DisjointColumnsYieldSeparateDomains) {
  discovery::Corpus corpus;
  auto colors = table::Table::FromCsv(
      "cars", "vehicle_color\nred\ngreen\nblue\nwhite\n");
  auto colors2 = table::Table::FromCsv(
      "clothes", "cloth_color\nred\ngreen\nblue\nblack\n");
  auto cities = table::Table::FromCsv(
      "trips", "city\ndelft\nleiden\nhague\nrotterdam\n");
  ASSERT_TRUE(corpus.AddTable(*colors).ok());
  ASSERT_TRUE(corpus.AddTable(*colors2).ok());
  ASSERT_TRUE(corpus.AddTable(*cities).ok());
  D4DomainDiscovery d4;
  auto domains = d4.Discover(corpus);
  ASSERT_EQ(domains.size(), 2u);
  // The color domain merges the two color columns.
  EXPECT_EQ(domains[0].columns.size(), 2u);
  EXPECT_TRUE(std::find(domains[0].terms.begin(), domains[0].terms.end(),
                        "red") != domains[0].terms.end());
  EXPECT_EQ(domains[1].columns.size(), 1u);
}

// ---------------------------------------------------------------- DomainNet

TEST_F(DomainLakeTest, DomainNetFindsPlantedHomographs) {
  DomainNet net;
  net.Build(*corpus_);
  EXPECT_GE(net.num_communities(), 2u);
  auto homographs = net.FindHomographs();
  std::set<std::string> found;
  for (const Homograph& h : homographs) found.insert(h.value);
  size_t hits = 0;
  for (const std::string& planted : lake_->homographs) {
    if (found.count(planted) > 0) ++hits;
  }
  EXPECT_GE(hits, 1u);
  // Regular terms score 1 (single community).
  EXPECT_LE(net.HomographScore("dom0_term0"), 1.0);
  EXPECT_DOUBLE_EQ(net.HomographScore("never_seen"), 0.0);
}

TEST(DomainNetSmallTest, BridgingValueDetected) {
  discovery::Corpus corpus;
  // Community 1: fruit columns sharing many values; community 2: brands.
  auto fruit1 = table::Table::FromCsv(
      "f1", "fruit\napple\nbanana\npear\ncherry\n");
  auto fruit2 = table::Table::FromCsv(
      "f2", "fruit\napple\nbanana\npear\nplum\n");
  auto brand1 = table::Table::FromCsv(
      "b1", "brand\napple\nsamsung\nsony\nnokia\n");
  auto brand2 = table::Table::FromCsv(
      "b2", "brand\nsamsung\nsony\nnokia\nxiaomi\n");
  ASSERT_TRUE(corpus.AddTable(*fruit1).ok());
  ASSERT_TRUE(corpus.AddTable(*fruit2).ok());
  ASSERT_TRUE(corpus.AddTable(*brand1).ok());
  ASSERT_TRUE(corpus.AddTable(*brand2).ok());
  DomainNet net;
  net.Build(corpus);
  // "apple" appears in the fruit community and the brand community.
  EXPECT_GE(net.HomographScore("apple"), 2.0);
  EXPECT_LE(net.HomographScore("banana"), 1.0);
  auto homographs = net.FindHomographs();
  ASSERT_FALSE(homographs.empty());
  EXPECT_EQ(homographs[0].value, "apple");
}

// ---------------------------------------------------------------- RFD

TEST(RfdTest, ExactFdDiscovered) {
  auto t = table::Table::FromCsv(
      "t", "city,zip,amount\nA,Z1,10\nA,Z1,20\nB,Z2,30\nB,Z2,40\n");
  auto fds = DiscoverRelaxedFds(*t);
  bool found = false;
  for (const RelaxedFd& fd : fds) {
    if (fd.lhs == std::vector<std::string>{"city"} && fd.rhs == "zip") {
      found = true;
      EXPECT_DOUBLE_EQ(fd.confidence, 1.0);
      EXPECT_TRUE(fd.violating_rows.empty());
    }
  }
  EXPECT_TRUE(found);
}

TEST(RfdTest, RelaxedFdToleratesViolations) {
  workload::DirtyTableOptions options;
  options.num_rows = 400;
  options.num_violations = 12;  // 3% violations
  auto dirty = workload::MakeDirtyTable(options);
  RfdOptions rfd_options;
  rfd_options.min_confidence = 0.9;
  auto fds = DiscoverRelaxedFds(dirty.table, rfd_options);
  const RelaxedFd* city_zip = nullptr;
  for (const RelaxedFd& fd : fds) {
    if (fd.lhs == std::vector<std::string>{"city"} && fd.rhs == "zip") {
      city_zip = &fd;
    }
  }
  ASSERT_NE(city_zip, nullptr);
  EXPECT_GE(city_zip->confidence, 0.9);
  EXPECT_LT(city_zip->confidence, 1.0);
  // The recorded violations are exactly the planted ones (majority holds).
  EXPECT_EQ(city_zip->violating_rows, dirty.violation_rows);
}

TEST(RfdTest, EvaluateSpecificFd) {
  auto t = table::Table::FromCsv("t", "a,b\n1,x\n1,x\n1,y\n2,z\n");
  RelaxedFd fd = EvaluateFd(*t, {"a"}, "b");
  EXPECT_DOUBLE_EQ(fd.confidence, 0.75);  // one of four rows violates
  EXPECT_EQ(fd.violating_rows, (std::vector<size_t>{2}));
}

TEST(RfdTest, KeyColumnsPrunedFromLhs) {
  // "id" is a key: id -> anything is trivial and must not be reported.
  auto t = table::Table::FromCsv("t", "id,v\n1,x\n2,x\n3,y\n");
  auto fds = DiscoverRelaxedFds(*t);
  for (const RelaxedFd& fd : fds) {
    EXPECT_NE(fd.lhs, std::vector<std::string>{"id"});
  }
}

TEST(RfdTest, PairLhsDiscoveredWhenSinglesFail) {
  // c is determined by (a, b) jointly but by neither alone.
  auto t = table::Table::FromCsv(
      "t",
      "a,b,c\n1,1,p\n1,1,p\n1,2,q\n1,2,q\n2,1,r\n2,1,r\n2,2,s\n2,2,s\n");
  RfdOptions options;
  options.min_confidence = 1.0;
  auto fds = DiscoverRelaxedFds(*t, options);
  bool pair_found = false;
  for (const RelaxedFd& fd : fds) {
    if (fd.lhs.size() == 2 && fd.rhs == "c") pair_found = true;
    // Minimality: no single-attribute FD to c should exist at conf 1.0.
    if (fd.lhs.size() == 1 && fd.rhs == "c") {
      FAIL() << "unexpected single FD " << fd.lhs[0] << " -> c";
    }
  }
  EXPECT_TRUE(pair_found);
}

/// A string table with columns `names`, one row per entry of `rows`;
/// std::nullopt is NULL.
table::Table StringTable(
    const std::vector<std::string>& names,
    const std::vector<std::vector<std::optional<std::string>>>& rows) {
  std::vector<table::Field> fields;
  for (const std::string& name : names) {
    fields.push_back({name, table::DataType::kString, true});
  }
  table::Table t("t", table::Schema(fields));
  for (const auto& row : rows) {
    std::vector<table::Value> cells;
    for (const auto& cell : row) {
      cells.push_back(cell ? table::Value(*cell) : table::Value::Null());
    }
    EXPECT_TRUE(t.AppendRow(std::move(cells)).ok());
  }
  return t;
}

// Row keys are self-delimiting: no choice of cell bytes makes two distinct
// LHS tuples, or a NULL and a string, share a group.
TEST(RfdTest, DistinctLhsTuplesNeverShareAGroup) {
  // "\x02" "b": as one literal, "\x02b" would be the single byte 0x2b.
  const table::Table split = StringTable(
      {"a", "b", "y"}, {{"a\x02", "b", "x"}, {"a", "\x02" "b", "z"}});
  EXPECT_DOUBLE_EQ(EvaluateFd(split, {"a", "b"}, "y").confidence, 1.0);
  const table::Table null_lhs =
      StringTable({"a", "y"}, {{std::nullopt, "x"}, {"\x01", "z"}});
  EXPECT_DOUBLE_EQ(EvaluateFd(null_lhs, {"a"}, "y").confidence, 1.0);
  // A NULL right-hand side is its own value, not the string "\x01".
  const table::Table null_rhs =
      StringTable({"a", "y"}, {{"k", std::nullopt}, {"k", "\x01"}});
  EXPECT_DOUBLE_EQ(EvaluateFd(null_rhs, {"a"}, "y").confidence, 0.5);
}

TEST(RfdTest, EvaluateUnknownColumnsYieldsZeroConfidence) {
  auto t = table::Table::FromCsv("t", "a\n1\n");
  RelaxedFd fd = EvaluateFd(*t, {"ghost"}, "a");
  EXPECT_DOUBLE_EQ(fd.confidence, 0.0);
}

}  // namespace
}  // namespace lakekit::enrich
