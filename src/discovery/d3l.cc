#include "discovery/d3l.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "text/ks_test.h"
#include "text/minhash.h"
#include "text/tokenize.h"

namespace lakekit::discovery {

namespace {

/// Candidates are also generated from attribute-name q-gram MinHash.
constexpr size_t kNameMinHashSize = 64;
constexpr size_t kNameLshBands = 16;
constexpr size_t kNameLshRows = 4;
static_assert(kNameLshBands * kNameLshRows == kNameMinHashSize,
              "name LSH bands * rows must equal the name MinHash length");
/// Logistic-regression training.
constexpr double kLearningRate = 0.5;
constexpr int kTrainingEpochs = 200;

}  // namespace

Status D3lFinder::Build(ThreadPool* pool) {
  value_lsh_ = std::make_unique<text::LshIndex>(kLshBands, kLshRows);
  name_lsh_ = std::make_unique<text::LshIndex>(kNameLshBands, kNameLshRows);
  const auto& sketches = corpus_->sketches();
  // Per-column name MinHashing (q-gram extraction + hashing) is the
  // expensive part of the build: fan it out into pre-sized slots, then run
  // the order-sensitive LSH insertions serially over the results.
  text::MinHasher name_hasher(kNameMinHashSize, /*seed=*/23);
  name_signatures_.assign(sketches.size(), text::MinHashSignature());
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      0, sketches.size(),
      [&](size_t i) -> Status {
        name_signatures_[i] =
            name_hasher.Compute(text::QGrams(sketches[i].column_name, 3));
        return Status::OK();
      },
      pool));
  for (size_t i = 0; i < sketches.size(); ++i) {
    value_lsh_->Insert(sketches[i].id.Packed(), sketches[i].minhash);
    name_lsh_->Insert(sketches[i].id.Packed(), name_signatures_[i]);
  }
  built_ = true;
  return Status::OK();
}

D3lFeatures D3lFinder::ComputeFeatures(ColumnId a, ColumnId b) const {
  const ColumnSketch& sa = corpus_->sketch(a);
  const ColumnSketch& sb = corpus_->sketch(b);
  D3lFeatures f;

  // i) attribute-name similarity: Jaccard of name q-grams.
  f.name = text::GramJaccard(sa.name_grams, sb.name_grams);

  // ii) instance-value overlap: MinHash Jaccard estimate.
  f.values = sa.minhash.EstimateJaccard(sb.minhash);

  // iii) embedding similarity: cosine of value embeddings, clamped to [0,1].
  f.embedding =
      std::max(0.0, text::CosineSimilarity(sa.embedding, sb.embedding));

  // iv) format similarity: Jaccard over format-pattern histograms weighted
  // by counts (histogram intersection / union).
  {
    double inter = 0;
    double uni = 0;
    auto ita = sa.format_histogram.begin();
    auto itb = sb.format_histogram.begin();
    while (ita != sa.format_histogram.end() ||
           itb != sb.format_histogram.end()) {
      if (itb == sb.format_histogram.end() ||
          (ita != sa.format_histogram.end() && ita->first < itb->first)) {
        uni += static_cast<double>(ita->second);
        ++ita;
      } else if (ita == sa.format_histogram.end() ||
                 itb->first < ita->first) {
        uni += static_cast<double>(itb->second);
        ++itb;
      } else {
        inter += static_cast<double>(std::min(ita->second, itb->second));
        uni += static_cast<double>(std::max(ita->second, itb->second));
        ++ita;
        ++itb;
      }
    }
    f.format = uni == 0 ? 0.0 : inter / uni;
  }

  // v) numeric distribution similarity: 1 - KS statistic (numeric columns
  // only; pairs with a non-numeric side score 0 on this axis).
  if (!sa.numeric_values.empty() && !sb.numeric_values.empty()) {
    f.distribution =
        1.0 - text::KsStatistic(sa.numeric_values, sb.numeric_values);
  }
  return f;
}

double D3lFinder::Distance(ColumnId a, ColumnId b) const {
  D3lFeatures f = ComputeFeatures(a, b);
  std::array<double, 5> sims = f.AsArray();
  double sum = 0;
  for (size_t i = 0; i < 5; ++i) {
    double d = (1.0 - sims[i]) * weights_[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

Status D3lFinder::TrainWeights(const std::vector<LabeledPair>& pairs) {
  if (pairs.empty()) {
    return Status::InvalidArgument("no training pairs");
  }
  // Logistic regression P(related) = sigmoid(w . f + b); the learned |w|
  // become the distance weights — features that separate related from
  // unrelated pairs get more influence, mirroring D3L's trained
  // coefficients.
  std::vector<std::array<double, 5>> xs;
  std::vector<double> ys;
  xs.reserve(pairs.size());
  for (const LabeledPair& p : pairs) {
    xs.push_back(ComputeFeatures(p.a, p.b).AsArray());
    ys.push_back(p.related ? 1.0 : 0.0);
  }
  std::array<double, 5> w{0, 0, 0, 0, 0};
  double b = 0;
  for (int epoch = 0; epoch < kTrainingEpochs; ++epoch) {
    std::array<double, 5> grad_w{0, 0, 0, 0, 0};
    double grad_b = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
      double z = b;
      for (size_t d = 0; d < 5; ++d) z += w[d] * xs[i][d];
      double pred = 1.0 / (1.0 + std::exp(-z));
      double err = pred - ys[i];
      for (size_t d = 0; d < 5; ++d) grad_w[d] += err * xs[i][d];
      grad_b += err;
    }
    const double n = static_cast<double>(xs.size());
    for (size_t d = 0; d < 5; ++d) w[d] -= kLearningRate * grad_w[d] / n;
    b -= kLearningRate * grad_b / n;
  }
  // Normalize positive weights to mean 1 so distances stay comparable to
  // the unweighted default.
  double total = 0;
  for (size_t d = 0; d < 5; ++d) {
    weights_[d] = std::max(0.0, w[d]);
    total += weights_[d];
  }
  if (total > 0) {
    for (size_t d = 0; d < 5; ++d) weights_[d] *= 5.0 / total;
  } else {
    weights_ = {1, 1, 1, 1, 1};
  }
  bias_ = b;
  return Status::OK();
}

std::vector<ColumnId> D3lFinder::Candidates(const ColumnSketch& query) const {
  std::set<uint64_t> packed;
  for (uint64_t p : value_lsh_->Query(query.minhash)) packed.insert(p);
  // Name candidates, from the signature Build stored for this column.
  const size_t i = static_cast<size_t>(&query - corpus_->sketches().data());
  if (i < name_signatures_.size()) {
    for (uint64_t p : name_lsh_->Query(name_signatures_[i])) packed.insert(p);
  }
  std::vector<ColumnId> out;
  for (uint64_t p : packed) {
    ColumnId id = ColumnId::FromPacked(p);
    if (id.table_idx != query.id.table_idx) out.push_back(id);
  }
  return out;
}

std::vector<ColumnMatch> D3lFinder::TopKRelatedColumns(ColumnId query,
                                                       size_t k) const {
  const ColumnSketch& q = corpus_->sketch(query);
  std::vector<ColumnMatch> matches;
  for (ColumnId candidate : Candidates(q)) {
    matches.push_back(ColumnMatch{candidate, -Distance(query, candidate)});
  }
  SortAndTruncate(&matches, k);
  return matches;
}

std::vector<TableMatch> D3lFinder::TopKRelatedTables(size_t table_idx,
                                                     size_t k) const {
  std::vector<ColumnMatch> all;
  for (const ColumnSketch* s : corpus_->TableSketches(table_idx)) {
    for (const ColumnMatch& m : TopKRelatedColumns(s->id, k)) {
      all.push_back(m);
    }
  }
  return AggregateToTables(*corpus_, all, k);
}

}  // namespace lakekit::discovery
