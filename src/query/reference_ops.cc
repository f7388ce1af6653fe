#include "query/reference_ops.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/hash.h"
#include "query/vec.h"  // kMorselSize: the double-sum partial block size

namespace lakekit::query::reference {

using table::DataType;
using table::Field;
using table::Schema;
using table::Table;
using table::Value;

Result<Table> Filter(const Table& input, const Expr& predicate) {
  Table out(input.name(), input.schema());
  for (size_t r = 0; r < input.num_rows(); ++r) {
    std::vector<Value> row = input.Row(r);
    LAKEKIT_ASSIGN_OR_RETURN(bool keep,
                             EvalPredicate(predicate, input.schema(), row));
    if (keep) {
      LAKEKIT_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
    }
  }
  return out;
}

Result<Table> Project(const Table& input,
                      const std::vector<std::string>& columns) {
  Schema schema;
  std::vector<size_t> indexes;
  for (const std::string& name : columns) {
    LAKEKIT_ASSIGN_OR_RETURN(size_t idx, input.ColumnIndex(name));
    indexes.push_back(idx);
    schema.AddField(input.schema().field(idx));
  }
  Table out(input.name(), schema);
  for (size_t r = 0; r < input.num_rows(); ++r) {
    std::vector<Value> row;
    row.reserve(indexes.size());
    for (size_t idx : indexes) row.push_back(input.at(r, idx));
    LAKEKIT_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
  }
  return out;
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_col,
                       const std::string& right_col, JoinType type) {
  LAKEKIT_ASSIGN_OR_RETURN(size_t lidx, left.ColumnIndex(left_col));
  LAKEKIT_ASSIGN_OR_RETURN(size_t ridx, right.ColumnIndex(right_col));

  // Output schema: left fields + right fields (suffixing collisions).
  Schema schema;
  for (const Field& f : left.schema().fields()) schema.AddField(f);
  for (const Field& f : right.schema().fields()) {
    Field field = f;
    while (schema.HasField(field.name)) field.name += "_r";
    schema.AddField(field);
  }

  // Build side: right.
  std::unordered_map<Value, std::vector<size_t>, table::ValueHash> build;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    const Value& key = right.at(r, ridx);
    if (key.is_null()) continue;
    build[key].push_back(r);
  }

  Table out(left.name() + "_join_" + right.name(), schema);
  const size_t right_cols = right.num_columns();
  for (size_t l = 0; l < left.num_rows(); ++l) {
    const Value& key = left.at(l, lidx);
    auto it = key.is_null() ? build.end() : build.find(key);
    if (it != build.end()) {
      for (size_t r : it->second) {
        std::vector<Value> row = left.Row(l);
        for (size_t c = 0; c < right_cols; ++c) row.push_back(right.at(r, c));
        LAKEKIT_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
      }
    } else if (type == JoinType::kLeft) {
      std::vector<Value> row = left.Row(l);
      for (size_t c = 0; c < right_cols; ++c) row.push_back(Value::Null());
      LAKEKIT_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
    }
  }
  return out;
}

namespace {

struct AggState {
  size_t count = 0;
  int64_t isum = 0;
  // Double cells accumulate per-kMorselSize-block partials (`block_sum` for
  // the block `block`) folded into `dsum` in block order — the exact
  // summation order of the vectorized engine's ordered morsel merge, so the
  // two produce bit-identical SUM/AVG.
  double dsum = 0;
  double block_sum = 0;
  size_t block = 0;
  Value min;
  Value max;

  void Add(const Value& v, size_t row) {
    if (v.is_null()) return;
    ++count;
    if (v.is_int()) {
      isum += v.as_int();
    } else if (v.is_double()) {
      const size_t b = row / kMorselSize;
      if (b != block) {
        dsum += block_sum;
        block_sum = 0;
        block = b;
      }
      block_sum += v.as_double();
    }
    if (min.is_null() || v < min) min = v;
    if (max.is_null() || max < v) max = v;
  }

  double DoubleSum() const { return dsum + block_sum; }

  /// The aggregate's value, of the `type` AggOutputType declares for it.
  Value Finish(AggFn fn, DataType type) const {
    switch (fn) {
      case AggFn::kCount:
        return Value(static_cast<int64_t>(count));
      case AggFn::kSum:
        if (count == 0) return Value::Null();
        if (type == DataType::kInt64) return Value(isum);
        return Value(static_cast<double>(isum) + DoubleSum());
      case AggFn::kAvg:
        if (count == 0) return Value::Null();
        return Value((static_cast<double>(isum) + DoubleSum()) /
                     static_cast<double>(count));
      case AggFn::kMin:
        return min;
      case AggFn::kMax:
        return max;
    }
    return Value::Null();
  }
};

/// Group key: the key values plus their combined hash. Equality is real
/// elementwise Value equality — not the old concatenated-ToString encoding,
/// which collapsed Value(1) with Value("1") and any strings containing
/// '\x01'/'\x02'.
struct GroupKey {
  std::vector<Value> values;
  uint64_t hash = 0;
};

uint64_t HashKeyValues(const std::vector<Value>& values) {
  uint64_t h = 0xa99ec0de5eedULL;
  for (const Value& v : values) h = HashCombine(h, v.Hash());
  return h;
}

struct GroupKeyHash {
  size_t operator()(const GroupKey& k) const {
    return static_cast<size_t>(k.hash);
  }
};

struct GroupKeyEq {
  bool operator()(const GroupKey& a, const GroupKey& b) const {
    if (a.hash != b.hash || a.values.size() != b.values.size()) return false;
    for (size_t i = 0; i < a.values.size(); ++i) {
      if (!(a.values[i] == b.values[i])) return false;
    }
    return true;
  }
};

DataType AggOutputType(AggFn fn, bool has_input, DataType input_type) {
  switch (fn) {
    case AggFn::kCount:
      return DataType::kInt64;
    case AggFn::kSum:
      // int64 inputs sum in int64 (exact past 2^53); everything else widens.
      return has_input && input_type == DataType::kInt64 ? DataType::kInt64
                                                         : DataType::kDouble;
    case AggFn::kAvg:
      return DataType::kDouble;
    case AggFn::kMin:
    case AggFn::kMax:
      return has_input ? input_type : DataType::kString;
  }
  return DataType::kString;
}

}  // namespace

Result<Table> Aggregate(const Table& input,
                        const std::vector<std::string>& group_by,
                        const std::vector<AggSpec>& aggs) {
  std::vector<size_t> group_idx;
  for (const std::string& g : group_by) {
    LAKEKIT_ASSIGN_OR_RETURN(size_t idx, input.ColumnIndex(g));
    group_idx.push_back(idx);
  }
  std::vector<size_t> agg_idx(aggs.size(), static_cast<size_t>(-1));
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (!aggs[i].column.empty()) {
      LAKEKIT_ASSIGN_OR_RETURN(size_t idx, input.ColumnIndex(aggs[i].column));
      agg_idx[i] = idx;
    } else if (aggs[i].fn != AggFn::kCount) {
      return Status::InvalidArgument("only COUNT supports '*'");
    }
  }

  // Group rows, first-seen order.
  struct Group {
    std::vector<Value> key;
    std::vector<AggState> states;
  };
  std::unordered_map<GroupKey, size_t, GroupKeyHash, GroupKeyEq> index;
  std::vector<Group> groups;
  for (size_t r = 0; r < input.num_rows(); ++r) {
    GroupKey key;
    key.values.reserve(group_idx.size());
    for (size_t g : group_idx) key.values.push_back(input.at(r, g));
    key.hash = HashKeyValues(key.values);
    auto [it, inserted] = index.try_emplace(std::move(key), groups.size());
    if (inserted) {
      Group group;
      group.key = it->first.values;
      group.states.resize(aggs.size());
      groups.push_back(std::move(group));
    }
    Group& group = groups[it->second];
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (aggs[i].fn == AggFn::kCount && agg_idx[i] == static_cast<size_t>(-1)) {
        ++group.states[i].count;
      } else {
        group.states[i].Add(input.at(r, agg_idx[i]), r);
      }
    }
  }
  // Global aggregate over empty input still yields one row.
  if (group_by.empty() && groups.empty()) {
    Group group;
    group.states.resize(aggs.size());
    groups.push_back(std::move(group));
  }

  // Output schema.
  Schema schema;
  for (size_t g : group_idx) schema.AddField(input.schema().field(g));
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggSpec& a = aggs[i];
    const bool has_input = agg_idx[i] != static_cast<size_t>(-1);
    DataType type = AggOutputType(
        a.fn, has_input,
        has_input ? input.schema().field(agg_idx[i]).type : DataType::kString);
    std::string alias = a.alias;
    if (alias.empty()) {
      static const char* kNames[] = {"count", "sum", "avg", "min", "max"};
      alias = std::string(kNames[static_cast<int>(a.fn)]) +
              (a.column.empty() ? "" : "_" + a.column);
    }
    schema.AddField(Field{alias, type, true});
  }
  Table out(input.name() + "_agg", schema);
  for (const Group& group : groups) {
    std::vector<Value> row = group.key;
    for (size_t i = 0; i < aggs.size(); ++i) {
      row.push_back(group.states[i].Finish(
          aggs[i].fn, schema.field(group_idx.size() + i).type));
    }
    LAKEKIT_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
  }
  return out;
}

Result<Table> Sort(const Table& input, const std::string& column,
                   bool ascending) {
  LAKEKIT_ASSIGN_OR_RETURN(size_t idx, input.ColumnIndex(column));
  std::vector<size_t> order(input.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Value& va = input.at(a, idx);
    const Value& vb = input.at(b, idx);
    return ascending ? va < vb : vb < va;
  });
  Table out(input.name(), input.schema());
  for (size_t r : order) {
    LAKEKIT_RETURN_IF_ERROR(out.AppendRow(input.Row(r)));
  }
  return out;
}

table::Table Limit(const Table& input, size_t n) {
  Table out(input.name(), input.schema());
  for (size_t r = 0; r < input.num_rows() && r < n; ++r) {
    // ignore: rows copied from `input` always match `out`'s schema.
    (void)out.AppendRow(input.Row(r));
  }
  return out;
}

}  // namespace lakekit::query::reference
