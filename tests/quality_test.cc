#include <gtest/gtest.h>

#include <set>

#include "quality/auto_validate.h"
#include "quality/denial_constraints.h"
#include "workload/generator.h"

namespace lakekit::quality {
namespace {

// ---------------------------------------------------------------- DC

TEST(DenialConstraintTest, FromFdShape) {
  enrich::RelaxedFd fd;
  fd.lhs = {"city"};
  fd.rhs = "zip";
  DenialConstraint dc = DenialConstraint::FromFd(fd);
  ASSERT_EQ(dc.predicates.size(), 2u);
  EXPECT_EQ(dc.predicates[0].left_column, "city");
  EXPECT_EQ(dc.predicates[0].op, Op::kEq);
  EXPECT_EQ(dc.predicates[1].left_column, "zip");
  EXPECT_EQ(dc.predicates[1].op, Op::kNe);
  EXPECT_EQ(dc.description, "fd(city -> zip)");
}

TEST(DenialConstraintTest, ApplyOps) {
  table::Value one(int64_t{1});
  table::Value two(int64_t{2});
  EXPECT_TRUE(ApplyOp(Op::kEq, one, one));
  EXPECT_TRUE(ApplyOp(Op::kNe, one, two));
  EXPECT_TRUE(ApplyOp(Op::kLt, one, two));
  EXPECT_TRUE(ApplyOp(Op::kLe, one, one));
  EXPECT_TRUE(ApplyOp(Op::kGt, two, one));
  EXPECT_TRUE(ApplyOp(Op::kGe, two, two));
  EXPECT_FALSE(ApplyOp(Op::kLt, two, one));
}

TEST(ConstraintCheckerTest, FindsViolatingPairs) {
  auto t = table::Table::FromCsv(
      "t", "city,zip\nA,Z1\nA,Z1\nA,Z9\nB,Z2\n");  // row 2 breaks city->zip
  enrich::RelaxedFd fd;
  fd.lhs = {"city"};
  fd.rhs = "zip";
  DenialConstraint dc = DenialConstraint::FromFd(fd);
  auto pairs = ConstraintChecker::FindViolatingPairs(*t, dc);
  // Rows (0,2) and (1,2) violate.
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<size_t, size_t>{0, 2}));
  EXPECT_EQ(pairs[1], (std::pair<size_t, size_t>{1, 2}));
}

// Rows group under the same Value equality the predicates apply: 0.0 and
// -0.0 are equal, so the pair violates x -> y.
TEST(ConstraintCheckerTest, SignedZerosShareAnEqualityGroup) {
  const table::Schema schema({{"x", table::DataType::kDouble, true},
                              {"y", table::DataType::kString, true}});
  table::Table t("t", schema);
  ASSERT_TRUE(t.AppendRow({table::Value(0.0), table::Value("p")}).ok());
  ASSERT_TRUE(t.AppendRow({table::Value(-0.0), table::Value("q")}).ok());
  DenialConstraint dc;
  dc.predicates = {{"x", Op::kEq, "x"}, {"y", Op::kNe, "y"}};
  const auto pairs = ConstraintChecker::FindViolatingPairs(t, dc);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<size_t, size_t>{0, 1}));
}

TEST(ConstraintCheckerTest, UnknownColumnsYieldNoViolations) {
  auto t = table::Table::FromCsv("t", "a\n1\n2\n");
  DenialConstraint dc;
  dc.predicates = {{"ghost", Op::kEq, "ghost"}};
  EXPECT_TRUE(ConstraintChecker::FindViolatingPairs(*t, dc).empty());
}

TEST(ConstraintCheckerTest, RankingPutsPlantedErrorsFirst) {
  workload::DirtyTableOptions options;
  options.num_rows = 300;
  options.num_violations = 10;
  auto dirty = workload::MakeDirtyTable(options);
  auto ranked = ConstraintChecker::InferAndRank(dirty.table);
  ASSERT_FALSE(ranked.empty());
  // Precision@k: the top |planted| ranked rows should mostly be planted
  // violations (each planted row conflicts with many clean rows of its
  // city, so it accumulates far more violation edges).
  std::set<size_t> planted(dirty.violation_rows.begin(),
                           dirty.violation_rows.end());
  size_t hits = 0;
  for (size_t i = 0; i < ranked.size() && i < planted.size(); ++i) {
    if (planted.count(ranked[i].row) > 0) ++hits;
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(planted.size()),
            0.8);
}

TEST(ConstraintCheckerTest, CleanTableHasNoDirtyTuples) {
  auto t = table::Table::FromCsv(
      "t", "city,zip\nA,Z1\nA,Z1\nB,Z2\nB,Z2\nC,Z3\n");
  auto ranked = ConstraintChecker::InferAndRank(*t);
  EXPECT_TRUE(ranked.empty());
}

// ---------------------------------------------------------------- patterns

TEST(ValuePatternTest, Levels) {
  EXPECT_EQ(ValuePattern("AB-1234", 0).ToString(), "a{2}-d{4}");
  EXPECT_EQ(ValuePattern("AB-1234", 1).ToString(), "a+-d+");
  EXPECT_EQ(ValuePattern("2024/01", 0).ToString(), "d{4}/d{2}");
  EXPECT_EQ(ValuePattern("", 0).ToString(), "");
}

TEST(PatternMatchTest, ExactLengths) {
  Pattern p = ValuePattern("Z12", 0);  // a{1}d{2}
  EXPECT_TRUE(p.Matches("Z12"));
  EXPECT_TRUE(p.Matches("A99"));
  EXPECT_FALSE(p.Matches("Z123"));
  EXPECT_FALSE(p.Matches("12Z"));
  EXPECT_FALSE(p.Matches(""));
}

TEST(PatternMatchTest, OpenLengths) {
  Pattern p = ValuePattern("Z12", 1);  // a+d+
  EXPECT_TRUE(p.Matches("Z12"));
  EXPECT_TRUE(p.Matches("ABC99999"));
  EXPECT_FALSE(p.Matches("123"));
}

TEST(ValidatorTest, TrainsOnHomogeneousColumn) {
  std::vector<std::string> zips;
  for (int i = 0; i < 100; ++i) {
    zips.push_back("Z" + std::to_string(10 + i % 80));
  }
  auto validator = Validator::Train(zips);
  ASSERT_TRUE(validator.ok());
  EXPECT_TRUE(validator->Validate("Z42"));
  EXPECT_FALSE(validator->Validate("42Z"));
  EXPECT_FALSE(validator->Validate("hello world"));
  EXPECT_DOUBLE_EQ(validator->RejectionRate(zips), 0.0);
}

TEST(ValidatorTest, PrefersSpecificLevelWhenCoverageAllows) {
  // All values are a{1}d{2}: exact-length level 0 should win, rejecting
  // longer digit runs.
  std::vector<std::string> values;
  for (int i = 10; i < 60; ++i) values.push_back("Q" + std::to_string(i));
  auto validator = Validator::Train(values);
  ASSERT_TRUE(validator.ok());
  EXPECT_TRUE(validator->Validate("Q77"));
  EXPECT_FALSE(validator->Validate("Q7777"));  // level-0 pattern rejects
}

TEST(ValidatorTest, FallsBackToOpenLengthsForMixedLengths) {
  std::vector<std::string> values;
  for (int i = 1; i < 120; ++i) values.push_back("ID" + std::to_string(i));
  // Lengths 1-3 digits: level 0 needs 3 patterns; with max_patterns=2 it
  // cannot reach coverage, so level 1 (d+ open) should be chosen.
  AutoValidateOptions options;
  options.max_patterns = 2;
  auto validator = Validator::Train(values, options);
  ASSERT_TRUE(validator.ok());
  EXPECT_TRUE(validator->Validate("ID5"));
  EXPECT_TRUE(validator->Validate("ID55555"));
}

TEST(ValidatorTest, DriftDetection) {
  std::vector<std::string> train;
  for (int i = 0; i < 200; ++i) train.push_back("SKU-" + std::to_string(1000 + i));
  auto validator = Validator::Train(train);
  ASSERT_TRUE(validator.ok());
  // New batch with 20% drifted format.
  std::vector<std::string> batch;
  for (int i = 0; i < 80; ++i) batch.push_back("SKU-" + std::to_string(2000 + i));
  for (int i = 0; i < 20; ++i) batch.push_back("sku_" + std::to_string(i) + "x");
  double rate = validator->RejectionRate(batch);
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(ValidatorTest, HeterogeneousValuesFailTraining) {
  std::vector<std::string> values;
  for (int i = 0; i < 100; ++i) {
    // 100 structurally distinct values (growing literal structure).
    values.push_back(std::string(static_cast<size_t>(i % 50), '-') + "x" +
                     std::string(static_cast<size_t>(i % 37), '.'));
  }
  AutoValidateOptions options;
  options.max_patterns = 2;
  options.min_coverage = 0.99;
  EXPECT_FALSE(Validator::Train(values, options).ok());
}

TEST(ValidatorTest, EmptyTrainingRejected) {
  EXPECT_TRUE(Validator::Train({}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace lakekit::quality
