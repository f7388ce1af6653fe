#include "harness/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "table/table.h"

namespace lake_e2e {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

constexpr int64_t kRegions = 8;
constexpr int64_t kTiers = 10;
constexpr int64_t kCategories = 12;
constexpr int64_t kMaxQty = 20;

std::vector<FactRow> MakeFact(SplitMix* rng, size_t rows,
                              const SourceSizes& sizes) {
  std::vector<FactRow> fact(rows);
  for (size_t i = 0; i < rows; ++i) {
    FactRow& r = fact[i];
    r.id = static_cast<int64_t>(i);
    r.cust = static_cast<int64_t>(rng->Below(sizes.customers));
    r.prod = static_cast<int64_t>(rng->Below(sizes.products));
    r.qty = 1 + static_cast<int64_t>(rng->Below(kMaxQty));
    r.amount_cents = 100 + static_cast<int64_t>(rng->Below(100000));
  }
  return fact;
}

void AppendCents(std::string* out, int64_t cents) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld",
                static_cast<long long>(cents / 100),
                static_cast<long long>(cents % 100));
  out->append(buf);
}

double Money(int64_t cents) { return static_cast<double>(cents) / 100.0; }

bool NearlyEqual(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

bool CellEqual(const Cell& a, const Cell& b) {
  if (a.index() != b.index()) return false;
  if (const double* x = std::get_if<double>(&a)) {
    return NearlyEqual(*x, std::get<double>(b));
  }
  return a == b;
}

/// Orders rows for multiset comparison: by type tag, then value. Doubles
/// within a multiset compare are ordered by value, which is enough because
/// the rows being compared carry exact keys (ids, group names) first.
bool RowLess(const std::vector<Cell>& a, const std::vector<Cell>& b) {
  return a < b;
}

std::string Describe(const Cell& c) {
  if (std::holds_alternative<std::monostate>(c)) return "NULL";
  if (const int64_t* i = std::get_if<int64_t>(&c)) return std::to_string(*i);
  if (const double* d = std::get_if<double>(&c)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", *d);
    return buf;
  }
  return "'" + std::get<std::string>(c) + "'";
}

std::string DescribeRow(const std::vector<Cell>& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    s += Describe(row[i]);
  }
  return s + ")";
}

}  // namespace

QuerySources MakeQuerySources(uint64_t seed, const SourceSizes& sizes) {
  QuerySources s;
  SplitMix rng(seed ^ 0x5eed0f00dULL);
  s.fact = MakeFact(&rng, sizes.fact_rows, sizes);
  s.customers.resize(sizes.customers);
  for (size_t i = 0; i < sizes.customers; ++i) {
    CustomerRow& c = s.customers[i];
    c.cust_id = static_cast<int64_t>(i);
    c.region = "region" + std::to_string(rng.Below(kRegions));
    c.tier = static_cast<int64_t>(rng.Below(kTiers));
    c.balance_cents = static_cast<int64_t>(rng.Below(10000000));
  }
  s.products.resize(sizes.products);
  for (size_t i = 0; i < sizes.products; ++i) {
    ProductDoc& p = s.products[i];
    p.prod_id = static_cast<int64_t>(i);
    p.category = "cat" + std::to_string(rng.Below(kCategories));
    p.title = "item-" + std::to_string(rng.Below(1000000));
    p.price_cents = 100 + static_cast<int64_t>(rng.Below(5000));
  }
  return s;
}

std::vector<FactRow> MakeFactVersion(uint64_t seed, const SourceSizes& sizes,
                                     uint64_t version) {
  SplitMix rng(seed ^ (0xa11ce5ULL + version * 0x9e3779b97f4a7c15ULL));
  return MakeFact(&rng, sizes.fact_rows + (version % 7) * 3, sizes);
}

std::string FactCsv(const std::vector<FactRow>& rows) {
  std::string out = "id,cust,prod,qty,amount\n";
  out.reserve(rows.size() * 32);
  for (const FactRow& r : rows) {
    out += std::to_string(r.id);
    out += ',';
    out += std::to_string(r.cust);
    out += ',';
    out += std::to_string(r.prod);
    out += ',';
    out += std::to_string(r.qty);
    out += ',';
    AppendCents(&out, r.amount_cents);
    out += '\n';
  }
  return out;
}

std::string CustomersCsv(const std::vector<CustomerRow>& rows) {
  std::string out = "cust_id,region,tier,balance\n";
  for (const CustomerRow& r : rows) {
    out += std::to_string(r.cust_id) + "," + r.region + "," +
           std::to_string(r.tier) + ",";
    AppendCents(&out, r.balance_cents);
    out += '\n';
  }
  return out;
}

std::string ProductsJson(const std::vector<ProductDoc>& docs) {
  std::string out = "[";
  for (size_t i = 0; i < docs.size(); ++i) {
    const ProductDoc& d = docs[i];
    if (i > 0) out += ",\n";
    out += "{\"prod_id\": " + std::to_string(d.prod_id) + ", \"category\": \"" +
           d.category + "\", \"title\": \"" + d.title + "\", \"price\": ";
    AppendCents(&out, d.price_cents);
    out += "}";
  }
  out += "]\n";
  return out;
}

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kRange:
      return "range";
    case Shape::kJoinGroup:
      return "join_group";
    case Shape::kGroupAggs:
      return "group_aggs";
    case Shape::kTopK:
      return "top_k";
  }
  return "?";
}

QueryInstance MakeInstance(Shape shape, SplitMix* rng, size_t fact_rows) {
  QueryInstance q;
  q.shape = shape;
  const auto rows = static_cast<int64_t>(fact_rows);
  switch (shape) {
    case Shape::kRange: {
      const int64_t width = std::max<int64_t>(1, rows / 200);
      q.lo = static_cast<int64_t>(rng->Below(static_cast<uint64_t>(rows - width + 1)));
      q.hi = q.lo + width;
      q.sql = "SELECT id, cust, amount FROM fact WHERE id >= " +
              std::to_string(q.lo) + " AND id < " + std::to_string(q.hi);
      break;
    }
    case Shape::kJoinGroup: {
      const int64_t width = std::max<int64_t>(1, rows / 5);
      q.lo = static_cast<int64_t>(rng->Below(static_cast<uint64_t>(rows - width + 1)));
      q.hi = q.lo + width;
      q.min_cents = 100 + static_cast<int64_t>(rng->Below(2500));
      // A half-cent literal: no price equals it, so the predicate means
      // price_cents >= min_cents however the literal and the prices parse.
      const int64_t mills = q.min_cents * 10 - 5;
      char literal[40];
      std::snprintf(literal, sizeof(literal), "%lld.%03lld",
                    static_cast<long long>(mills / 1000),
                    static_cast<long long>(mills % 1000));
      q.sql =
          "SELECT category, COUNT(*) AS n, SUM(amount) AS total FROM fact "
          "JOIN products ON prod = prod_id WHERE id >= " +
          std::to_string(q.lo) + " AND id < " + std::to_string(q.hi) +
          " AND price >= " + literal + " GROUP BY category";
      break;
    }
    case Shape::kGroupAggs: {
      q.min_int = static_cast<int64_t>(rng->Below(6));
      q.sql =
          "SELECT region, COUNT(*) AS n, SUM(balance) AS total, AVG(balance) "
          "AS mean, MIN(tier) AS lo, MAX(tier) AS hi FROM customers WHERE "
          "tier >= " +
          std::to_string(q.min_int) + " GROUP BY region";
      break;
    }
    case Shape::kTopK: {
      q.min_int = kMaxQty - 5 + static_cast<int64_t>(rng->Below(6));
      q.sql = "SELECT id, amount FROM fact WHERE qty >= " +
              std::to_string(q.min_int) + " ORDER BY amount DESC LIMIT " +
              std::to_string(kTopKLimit);
      break;
    }
  }
  return q;
}

Answer Expected(const QueryInstance& q, const std::vector<FactRow>& fact,
                const std::vector<CustomerRow>& customers,
                const std::vector<ProductDoc>& products) {
  Answer a;
  switch (q.shape) {
    case Shape::kRange:
      a.columns = {"id", "cust", "amount"};
      for (const FactRow& r : fact) {
        if (r.id >= q.lo && r.id < q.hi) {
          a.rows.push_back({r.id, r.cust, Money(r.amount_cents)});
        }
      }
      break;
    case Shape::kJoinGroup: {
      a.columns = {"category", "n", "total"};
      std::map<int64_t, const ProductDoc*> by_id;
      for (const ProductDoc& p : products) by_id[p.prod_id] = &p;
      std::map<std::string, std::pair<int64_t, int64_t>> groups;  // n, cents
      for (const FactRow& r : fact) {
        if (r.id < q.lo || r.id >= q.hi) continue;
        auto it = by_id.find(r.prod);
        if (it == by_id.end() || it->second->price_cents < q.min_cents) continue;
        auto& g = groups[it->second->category];
        ++g.first;
        g.second += r.amount_cents;
      }
      for (const auto& [cat, g] : groups) {
        a.rows.push_back({cat, g.first, Money(g.second)});
      }
      break;
    }
    case Shape::kGroupAggs: {
      a.columns = {"region", "n", "total", "mean", "lo", "hi"};
      struct Agg {
        int64_t n = 0;
        int64_t cents = 0;
        int64_t lo = 0;
        int64_t hi = 0;
      };
      std::map<std::string, Agg> groups;
      for (const CustomerRow& c : customers) {
        if (c.tier < q.min_int) continue;
        Agg& g = groups[c.region];
        if (g.n == 0) g.lo = g.hi = c.tier;
        ++g.n;
        g.cents += c.balance_cents;
        g.lo = std::min(g.lo, c.tier);
        g.hi = std::max(g.hi, c.tier);
      }
      for (const auto& [region, g] : groups) {
        const double total = Money(g.cents);
        a.rows.push_back(
            {region, g.n, total, total / static_cast<double>(g.n), g.lo, g.hi});
      }
      break;
    }
    case Shape::kTopK: {
      // Every candidate for the top k: the k largest amounts plus any row
      // tied with the k-th, largest first. Compare() accepts any tie-break.
      a.columns = {"id", "amount"};
      std::vector<const FactRow*> rows;
      for (const FactRow& r : fact) {
        if (r.qty >= q.min_int) rows.push_back(&r);
      }
      std::stable_sort(rows.begin(), rows.end(),
                       [](const FactRow* x, const FactRow* y) {
                         return x->amount_cents > y->amount_cents;
                       });
      for (size_t i = 0; i < rows.size(); ++i) {
        if (i >= kTopKLimit &&
            rows[i]->amount_cents != rows[kTopKLimit - 1]->amount_cents) {
          break;
        }
        a.rows.push_back({rows[i]->id, Money(rows[i]->amount_cents)});
      }
      break;
    }
  }
  return a;
}

Answer FromTable(const lakekit::table::Table& t) {
  Answer a;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    a.columns.push_back(t.schema().field(c).name);
  }
  a.rows.resize(t.num_rows());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const std::vector<lakekit::table::Value>& col = t.column(c);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      const lakekit::table::Value& v = col[r];
      Cell cell;
      if (const int64_t* i = v.get_int()) {
        cell = *i;
      } else if (const double* d = v.get_double()) {
        cell = *d;
      } else if (const std::string* s = v.get_string()) {
        cell = *s;
      } else if (const bool* b = v.get_bool()) {
        cell = static_cast<int64_t>(*b ? 1 : 0);
      }
      a.rows[r].push_back(std::move(cell));
    }
  }
  return a;
}

std::string Compare(const QueryInstance& q, const Answer& expected,
                    const Answer& got) {
  const std::string where = std::string(ShapeName(q.shape)) + " [" + q.sql + "]: ";
  if (got.columns != expected.columns) {
    std::string cols;
    for (const std::string& c : got.columns) cols += c + " ";
    return where + "columns differ: got " + cols;
  }
  if (q.shape == Shape::kTopK) {
    const size_t want = std::min(kTopKLimit, expected.rows.size());
    if (got.rows.size() != want) {
      return where + "expected " + std::to_string(want) + " rows, got " +
             std::to_string(got.rows.size());
    }
    std::set<int64_t> seen;
    for (size_t i = 0; i < got.rows.size(); ++i) {
      // Amounts in the expected order; ids from the candidate set, once.
      if (!CellEqual(got.rows[i][1], expected.rows[i][1])) {
        return where + "row " + std::to_string(i) + " amount " +
               Describe(got.rows[i][1]) + ", expected " +
               Describe(expected.rows[i][1]);
      }
      bool candidate = false;
      for (const std::vector<Cell>& e : expected.rows) {
        candidate = candidate || (CellEqual(e[0], got.rows[i][0]) &&
                                  CellEqual(e[1], got.rows[i][1]));
      }
      const int64_t* id = std::get_if<int64_t>(&got.rows[i][0]);
      if (!candidate || id == nullptr || !seen.insert(*id).second) {
        return where + "row " + DescribeRow(got.rows[i]) +
               " is not one of the top rows";
      }
    }
    return "";
  }
  if (got.rows.size() != expected.rows.size()) {
    return where + "expected " + std::to_string(expected.rows.size()) +
           " rows, got " + std::to_string(got.rows.size());
  }
  std::vector<std::vector<Cell>> a = expected.rows;
  std::vector<std::vector<Cell>> b = got.rows;
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return where + "ragged row";
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!CellEqual(a[r][c], b[r][c])) {
        return where + "got " + DescribeRow(b[r]) + ", expected " +
               DescribeRow(a[r]);
      }
    }
  }
  return "";
}

}  // namespace lake_e2e
