#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "text/embedding.h"
#include "text/ks_test.h"
#include "text/levenshtein.h"
#include "text/lsh.h"
#include "text/minhash.h"
#include "text/tfidf.h"
#include "text/dictionary.h"
#include "text/tokenize.h"

#include "name_gram_oracle.h"

namespace lakekit::text {
namespace {

// ---------------------------------------------------------------- tokenize

TEST(TokenizeTest, SplitsOnNonAlnum) {
  EXPECT_EQ(Tokenize("Vehicle_Color-2024"),
            (std::vector<std::string>{"vehicle", "color", "2024"}));
  EXPECT_EQ(Tokenize("  "), (std::vector<std::string>{}));
  EXPECT_EQ(Tokenize("one"), (std::vector<std::string>{"one"}));
}

TEST(QGramsTest, PaddedGrams) {
  auto grams = QGrams("ab", 3);
  // padded: "$$ab$$" -> $$a, $ab, ab$, b$$
  EXPECT_EQ(grams, (std::vector<std::string>{"$$a", "$ab", "ab$", "b$$"}));
}

TEST(QGramsTest, LowercasesInput) {
  EXPECT_EQ(QGrams("AB", 2), QGrams("ab", 2));
}

TEST(JaccardTest, ExactValues) {
  using oracle::JaccardSimilarity;
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "b"}, {"a", "b"}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "b"}, {"c"}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "b", "c"}, {"b", "c", "d"}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  // Duplicates are treated as sets.
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "a"}, {"a"}), 1.0);
  EXPECT_DOUBLE_EQ(GramJaccard({}, {}), 1.0);
}

TEST(NameGramsTest, PacksTheDistinctPaddedGramsSorted) {
  // "$$ab$$" -> $$a, $ab, ab$, b$$; "Aa" lowercases to a repeated gram set.
  auto pack = [](const char* g) {
    return static_cast<uint32_t>(static_cast<unsigned char>(g[0])) << 16 |
           static_cast<uint32_t>(static_cast<unsigned char>(g[1])) << 8 |
           static_cast<uint32_t>(static_cast<unsigned char>(g[2]));
  };
  EXPECT_EQ(NameGrams("AB"), (std::vector<uint32_t>{pack("$$a"), pack("$ab"),
                                                    pack("ab$"), pack("b$$")}));
  EXPECT_EQ(NameGrams("aaaa").size(), 5u);  // $$a $aa aaa aa$ a$$
  EXPECT_EQ(NameGrams(""), (std::vector<uint32_t>{pack("$$$")}));
}

// Bit-equal to the string q-gram Jaccard on names with empty strings,
// upper case, the '$' pad byte and bytes >= 0x80.
TEST(NameGramsTest, GramJaccardMatchesStringOracle) {
  Rng rng(20240);
  for (int i = 0; i < 5000; ++i) {
    const std::string a = oracle::RandomName(rng);
    const std::string b = i % 7 == 0 ? a : oracle::RandomName(rng);
    const double want = oracle::StringGramJaccard(a, b);
    const double got = GramJaccard(NameGrams(a), NameGrams(b));
    ASSERT_EQ(got, want) << "'" << a << "' vs '" << b << "'";
  }
}

TEST(SortedOverlapTest, MatchesSetIntersection) {
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    // Sizes close together and far apart.
    std::set<uint32_t> a;
    std::set<uint32_t> b;
    const size_t na = rng.Below(40);
    const size_t nb = i % 2 == 0 ? rng.Below(40) : 600 + rng.Below(600);
    while (a.size() < na) a.insert(static_cast<uint32_t>(rng.Below(2000)));
    while (b.size() < nb) b.insert(static_cast<uint32_t>(rng.Below(2000)));
    size_t want = 0;
    for (uint32_t v : a) want += b.count(v);
    const std::vector<uint32_t> va(a.begin(), a.end());
    const std::vector<uint32_t> vb(b.begin(), b.end());
    EXPECT_EQ(SortedOverlap(va, vb), want);
    EXPECT_EQ(SortedOverlap(vb, va), want);
  }
}

TEST(SortedOverlapTest, DisjointTouchingAndEmptyLists) {
  const std::vector<uint32_t> low = {1, 4, 9};
  const std::vector<uint32_t> high = {10, 12};
  const std::vector<uint32_t> touching = {9, 11, 30};
  const std::vector<uint32_t> around = {0, 5, 20};
  const std::vector<uint32_t> empty;
  EXPECT_EQ(SortedOverlap(low, high), 0u);
  EXPECT_EQ(SortedOverlap(high, low), 0u);
  // a.back() == b.front() is one shared id, not a disjoint range.
  EXPECT_EQ(SortedOverlap(low, touching), 1u);
  EXPECT_EQ(SortedOverlap(touching, low), 1u);
  // Overlapping ranges that share no id.
  EXPECT_EQ(SortedOverlap(low, around), 0u);
  EXPECT_EQ(SortedOverlap(low, empty), 0u);
  EXPECT_EQ(SortedOverlap(empty, low), 0u);
  EXPECT_EQ(SortedOverlap(empty, empty), 0u);
  EXPECT_EQ(GramJaccard(empty, empty), 1.0);
  EXPECT_EQ(GramJaccard(low, empty), 0.0);
  EXPECT_EQ(GramJaccard(low, high), 0.0);
  EXPECT_EQ(GramJaccard(low, touching), 0.2);
}

// ------------------------------------------------------------- dictionary

TEST(StringDictionaryTest, DenseIdsInFirstInternOrderOverOneArena) {
  StringDictionary dict;
  auto intern = [&dict](std::string_view s) {
    return dict.Intern(s, Fnv1a64(s));
  };
  EXPECT_FALSE(dict.Find("a").has_value());
  EXPECT_EQ(intern("b"), 0u);
  EXPECT_EQ(intern(""), 1u);
  EXPECT_EQ(intern("a"), 2u);
  EXPECT_EQ(intern("b"), 0u);
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.bytes(), "ba");
  EXPECT_EQ(dict[0], "b");
  EXPECT_EQ(dict[1], "");
  EXPECT_EQ(dict[2], "a");
  EXPECT_EQ(dict.Find(""), std::optional<uint32_t>(1));
  EXPECT_FALSE(dict.Find("c").has_value());
}

// Many rehashes later every string still finds its id, against a map oracle.
TEST(StringDictionaryTest, MatchesMapOracleThroughGrowth) {
  StringDictionary dict;
  std::map<std::string, uint32_t> oracle;
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    std::string s = rng.NextWord(1 + rng.Below(4));
    if (i % 5 == 0) s += std::string(1, '\0') + "\xfe";
    auto [it, inserted] =
        oracle.emplace(s, static_cast<uint32_t>(oracle.size()));
    ASSERT_EQ(dict.Intern(s, Fnv1a64(s)), it->second);
  }
  ASSERT_EQ(dict.size(), oracle.size());
  for (const auto& [s, id] : oracle) {
    ASSERT_EQ(dict.Find(s), std::optional<uint32_t>(id));
    ASSERT_EQ(dict[id], s);
  }
}

// InternAll interns another dictionary's strings in its id order, exactly
// as one Intern call per string would, whether or not room was reserved.
TEST(StringDictionaryTest, InternAllMatchesInternInOrder) {
  Rng rng(3);
  StringDictionary one_by_one;
  StringDictionary batched;
  for (int column = 0; column < 50; ++column) {
    StringDictionary local;
    std::vector<uint64_t> hashes;
    for (int i = 0; i < 200; ++i) {
      const std::string s = rng.NextWord(1 + rng.Below(3));
      if (local.Intern(s, Fnv1a64(s)) == hashes.size()) {
        hashes.push_back(Fnv1a64(s));
      }
    }
    std::vector<uint32_t> want;
    for (uint32_t i = 0; i < local.size(); ++i) {
      want.push_back(one_by_one.Intern(local[i], hashes[i]));
    }
    if (column % 2 == 0) batched.Reserve(local.size());
    ASSERT_EQ(batched.InternAll(local, hashes), want);
  }
  EXPECT_EQ(batched.bytes(), one_by_one.bytes());
}

// ---------------------------------------------------------------- minhash

std::vector<std::string> MakeSet(int begin, int end) {
  std::vector<std::string> out;
  for (int i = begin; i < end; ++i) out.push_back("item" + std::to_string(i));
  return out;
}

TEST(MinHashTest, IdenticalSetsFullAgreement) {
  MinHasher hasher(64);
  auto s = MakeSet(0, 100);
  EXPECT_DOUBLE_EQ(hasher.Compute(s).EstimateJaccard(hasher.Compute(s)), 1.0);
}

TEST(MinHashTest, DisjointSetsNearZero) {
  MinHasher hasher(128);
  auto a = hasher.Compute(MakeSet(0, 200));
  auto b = hasher.Compute(MakeSet(200, 400));
  EXPECT_LT(a.EstimateJaccard(b), 0.05);
}

// Property: MinHash estimate converges to the true Jaccard similarity.
class MinHashAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(MinHashAccuracyTest, EstimatesTrueJaccard) {
  const double target = GetParam();
  // Build two sets of 1000 elements with |A ∩ B| / |A ∪ B| == target:
  // overlap/(2000 - overlap) = target => overlap = 2000*target/(1+target).
  const int total = 1000;
  const int overlap =
      static_cast<int>(std::round(2 * total * target / (1 + target)));
  std::vector<std::string> a = MakeSet(0, total);
  std::vector<std::string> b = MakeSet(total - overlap, 2 * total - overlap);
  const double true_jaccard =
      static_cast<double>(overlap) / static_cast<double>(2 * total - overlap);
  MinHasher hasher(256);
  double est = hasher.Compute(a).EstimateJaccard(hasher.Compute(b));
  // Standard error ~ sqrt(j(1-j)/k) ≈ 0.03 for k=256; allow 4 sigma.
  EXPECT_NEAR(est, true_jaccard, 0.13);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MinHashAccuracyTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(MinHashTest, FromHashesMatchesFromStrings) {
  MinHasher hasher(32);
  std::vector<std::string> elems = MakeSet(0, 50);
  std::vector<uint64_t> hashes;
  for (const auto& e : elems) hashes.push_back(Fnv1a64(e));
  EXPECT_EQ(hasher.Compute(elems).values(),
            hasher.ComputeFromHashes(hashes).values());
}

// The blocked count against a plain loop: lengths around the 32-value
// blocks, equal positions anywhere, values differing in one bit only.
TEST(MinHashTest, CountEqualMatchesPlainLoop) {
  Rng rng(5);
  for (size_t n : {0, 1, 31, 32, 33, 64, 100, 128, 129}) {
    std::vector<uint64_t> a(n);
    std::vector<uint64_t> b(n);
    size_t want = 0;
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Next();
      b[i] = rng.Below(2) == 0 ? a[i] : a[i] ^ (uint64_t{1} << rng.Below(64));
      want += a[i] == b[i];
    }
    EXPECT_EQ(CountEqual(a, b), want) << n;
    // The shorter array sets the length.
    EXPECT_EQ(CountEqual(a, std::span<const uint64_t>(b).first(n / 2)),
              CountEqual(std::span<const uint64_t>(a).first(n / 2), b));
  }
}

// ---------------------------------------------------------------- LSH

TEST(LshTest, SimilarItemsCollide) {
  MinHasher hasher(128);
  LshIndex index(/*bands=*/32, /*rows=*/4);
  auto base = MakeSet(0, 1000);
  index.Insert(1, hasher.Compute(base));
  // 90% overlapping set should collide with very high probability.
  auto similar = MakeSet(0, 900);
  for (int i = 0; i < 100; ++i) similar.push_back("extra" + std::to_string(i));
  auto candidates = index.Query(hasher.Compute(similar));
  EXPECT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], 1u);
}

TEST(LshTest, DissimilarItemsRarelyCollide) {
  MinHasher hasher(128);
  LshIndex index(32, 4);
  Rng rng(5);
  for (uint64_t id = 0; id < 50; ++id) {
    std::vector<std::string> s;
    for (int i = 0; i < 100; ++i) s.push_back(rng.NextWord(10));
    index.Insert(id, hasher.Compute(s));
  }
  std::vector<std::string> probe;
  for (int i = 0; i < 100; ++i) probe.push_back(rng.NextWord(10));
  auto candidates = index.Query(hasher.Compute(probe));
  EXPECT_LT(candidates.size(), 5u);
}

TEST(LshTest, CollisionProbabilitySCurve) {
  LshIndex index(32, 4);
  EXPECT_LT(index.CollisionProbability(0.1), 0.15);
  EXPECT_GT(index.CollisionProbability(0.9), 0.99);
  // Monotone increasing.
  double prev = 0;
  for (double s = 0.0; s <= 1.0; s += 0.1) {
    double p = index.CollisionProbability(s);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

// ---------------------------------------------------------------- TF-IDF

TEST(TfIdfTest, IdenticalDocsCosineOne) {
  TfIdfVectorizer v;
  size_t a = v.AddDocument({"data", "lake"});
  size_t b = v.AddDocument({"data", "lake"});
  EXPECT_NEAR(CosineSimilarity(v.Vectorize(a), v.Vectorize(b)), 1.0, 1e-9);
}

TEST(TfIdfTest, DisjointDocsCosineZero) {
  TfIdfVectorizer v;
  size_t a = v.AddDocument({"alpha"});
  size_t b = v.AddDocument({"beta"});
  EXPECT_DOUBLE_EQ(CosineSimilarity(v.Vectorize(a), v.Vectorize(b)), 0.0);
}

TEST(TfIdfTest, RareTokensWeighMore) {
  TfIdfVectorizer v;
  // "common" appears everywhere; "rare" once.
  for (int i = 0; i < 9; ++i) v.AddDocument({"common"});
  size_t d = v.AddDocument({"common", "rare"});
  SparseVector vec = v.Vectorize(d);
  EXPECT_GT(vec.at("rare"), vec.at("common"));
}

TEST(TfIdfTest, QueryVectorization) {
  TfIdfVectorizer v;
  size_t a = v.AddDocument({"flight", "delay", "airport"});
  v.AddDocument({"hospital", "patient"});
  SparseVector q = v.VectorizeQuery({"flight", "airport"});
  EXPECT_GT(CosineSimilarity(q, v.Vectorize(a)), 0.5);
}

// ---------------------------------------------------------------- embedding

TEST(EmbeddingTest, DeterministicAndUnitNorm) {
  EmbeddingModel model(32);
  DenseVector a = model.Embed("airport");
  DenseVector b = model.Embed("airport");
  EXPECT_EQ(a, b);
  double norm = 0;
  for (double x : a) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(EmbeddingTest, SameDomainTokensAreClose) {
  EmbeddingModel model(64);
  model.RegisterDomain("color", {"red", "green", "blue"});
  model.RegisterDomain("city", {"paris", "tokyo"});
  double same = CosineSimilarity(model.Embed("red"), model.Embed("blue"));
  double cross = CosineSimilarity(model.Embed("red"), model.Embed("paris"));
  double unrelated =
      CosineSimilarity(model.Embed("red"), model.Embed("zebra123"));
  EXPECT_GT(same, 0.5);
  EXPECT_GT(same, cross + 0.2);
  EXPECT_LT(std::abs(unrelated), 0.5);
}

TEST(EmbeddingTest, EmbedAllAveragesAndNormalizes) {
  EmbeddingModel model(32);
  DenseVector v = model.EmbedAll({"a", "b", "c"});
  double norm = 0;
  for (double x : v) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-9);
  EXPECT_TRUE(model.EmbedAll({}).size() == 32);
}

TEST(EmbeddingTest, EuclideanDistanceBasics) {
  DenseVector a{0, 0};
  DenseVector b{3, 4};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, a), 0.0);
}

// ---------------------------------------------------------------- edit dist

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
}

TEST(LevenshteinTest, Symmetric) {
  EXPECT_EQ(LevenshteinDistance("abcdef", "azced"),
            LevenshteinDistance("azced", "abcdef"));
}

TEST(LevenshteinTest, NormalizedSimilarity) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("abcd", "abcx"), 0.75, 1e-9);
}

// ---------------------------------------------------------------- KS

TEST(KsTest, IdenticalSamplesZero) {
  std::vector<double> a{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(KsStatistic(a, a), 0.0);
}

TEST(KsTest, DisjointSupportsNearOne) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{10, 11, 12};
  EXPECT_DOUBLE_EQ(KsStatistic(a, b), 1.0);
}

TEST(KsTest, EmptySampleIsMaxDistance) {
  EXPECT_DOUBLE_EQ(KsStatistic({}, {1.0}), 1.0);
}

TEST(KsTest, SameDistributionSmallStatistic) {
  Rng rng(31);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.NextGaussian());
    b.push_back(rng.NextGaussian());
  }
  EXPECT_LT(KsStatistic(a, b), 0.06);
}

TEST(KsTest, ShiftedDistributionLargeStatistic) {
  Rng rng(37);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.NextGaussian());
    b.push_back(rng.NextGaussian() + 2.0);
  }
  EXPECT_GT(KsStatistic(a, b), 0.5);
}

TEST(KsTest, PValueBehaviour) {
  // Large statistic, decent samples -> tiny p-value.
  EXPECT_LT(KsPValue(0.8, 100, 100), 1e-6);
  // Tiny statistic -> p close to 1.
  EXPECT_GT(KsPValue(0.01, 100, 100), 0.9);
}

}  // namespace
}  // namespace lakekit::text
