#include "integrate/full_disjunction.h"

#include <set>
#include <string>
#include <unordered_set>

#include "table/row_key.h"

namespace lakekit::integrate {

namespace {

/// Safety bound on merge rounds (the fixpoint normally arrives in
/// #tables - 1 rounds).
constexpr size_t kMaxRounds = 8;

using Tuple = std::vector<table::Value>;

/// Whether two padded tuples can combine: agree wherever both non-null and
/// overlap on at least one non-null attribute.
bool CanCombine(const Tuple& a, const Tuple& b) {
  bool shares = false;
  for (size_t i = 0; i < a.size(); ++i) {
    const bool an = a[i].is_null();
    const bool bn = b[i].is_null();
    if (!an && !bn) {
      if (!(a[i] == b[i])) return false;
      shares = true;
    }
  }
  return shares;
}

Tuple Combine(const Tuple& a, const Tuple& b) {
  Tuple out = a;
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i].is_null()) out[i] = b[i];
  }
  return out;
}

/// a subsumed by b: b is defined wherever a is and equal there, and b has
/// strictly more defined attributes (or equal tuples dedup elsewhere).
bool Subsumes(const Tuple& b, const Tuple& a) {
  bool extra = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].is_null()) {
      if (b[i].is_null() || !(a[i] == b[i])) return false;
    } else if (!b[i].is_null()) {
      extra = true;
    }
  }
  return extra;
}

std::string TupleKey(const Tuple& t) {
  std::string key;
  for (const table::Value& v : t) table::AppendRenderedKey(v, &key);
  return key;
}

}  // namespace

Result<table::Table> FullDisjunction(const std::vector<table::Table>& sources,
                                     const IntegrationResult& integration,
                                     const FullDisjunctionOptions& options) {
  // Start from the padded outer union.
  LAKEKIT_ASSIGN_OR_RETURN(table::Table padded,
                           ApplyMappings(sources, integration, "fd"));
  std::vector<Tuple> tuples;
  tuples.reserve(padded.num_rows());
  std::unordered_set<std::string> seen;
  for (size_t r = 0; r < padded.num_rows(); ++r) {
    Tuple t = padded.Row(r);
    if (seen.insert(TupleKey(t)).second) tuples.push_back(std::move(t));
  }

  // Fixpoint: combine joinable tuples until no new tuple appears.
  for (size_t round = 0; round < kMaxRounds; ++round) {
    std::vector<Tuple> fresh;
    for (size_t i = 0; i < tuples.size(); ++i) {
      for (size_t j = i + 1; j < tuples.size(); ++j) {
        if (!CanCombine(tuples[i], tuples[j])) continue;
        Tuple merged = Combine(tuples[i], tuples[j]);
        if (seen.insert(TupleKey(merged)).second) {
          fresh.push_back(std::move(merged));
        }
      }
      if (tuples.size() + fresh.size() > options.max_tuples) {
        return Status::FailedPrecondition(
            "full disjunction exceeded tuple budget");
      }
    }
    if (fresh.empty()) break;
    for (Tuple& t : fresh) tuples.push_back(std::move(t));
  }

  // Remove subsumed tuples.
  std::vector<bool> dead(tuples.size(), false);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (dead[i]) continue;
    for (size_t j = 0; j < tuples.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (Subsumes(tuples[j], tuples[i])) {
        dead[i] = true;
        break;
      }
    }
  }

  table::Table out("full_disjunction", integration.integrated);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (!dead[i]) {
      LAKEKIT_RETURN_IF_ERROR(out.AppendRow(std::move(tuples[i])));
    }
  }
  return out;
}

Result<table::Table> IntegrateTables(const std::vector<table::Table>& sources) {
  LAKEKIT_ASSIGN_OR_RETURN(IntegrationResult integration,
                           IntegrateSchemas(sources));
  return FullDisjunction(sources, integration);
}

}  // namespace lakekit::integrate
