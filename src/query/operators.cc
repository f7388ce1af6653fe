#include "query/operators.h"

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "query/vec.h"
#include "query/zone_map.h"
#include "table/row_key.h"

namespace lakekit::query {

using table::DataType;
using table::Field;
using table::Schema;
using table::Table;
using table::Value;

/// Vectorized operators (DESIGN.md §7). Each operator splits its input into
/// kMorselSize-row morsels, runs a pure per-morsel computation on the
/// execution layer's thread pool (pre-sized slots: result m depends only on
/// m), and merges the per-morsel results serially in ascending morsel order.
/// That merge order is the whole determinism story: output rows, group
/// order, and even the floating-point summation order are fixed, so any
/// thread count — including 1 — produces bit-identical tables, and those
/// tables are bit-identical to query/reference_ops.h.

Status CheckInterrupt(const ExecOptions& opts) {
  if (opts.cancel.cancelled()) return opts.cancel.status();
  if (opts.deadline.expired()) {
    return Status::DeadlineExceeded("query deadline expired");
  }
  return Status::OK();
}

namespace {

/// Morsel m covers input rows [MorselBegin(m), MorselEnd(m, rows)).
size_t MorselBegin(size_t m) { return m * kMorselSize; }
size_t MorselEnd(size_t m, size_t rows) {
  return std::min(rows, (m + 1) * kMorselSize);
}

}  // namespace

Result<Table> Filter(const Table& input, const Expr& predicate,
                     const ExecOptions& opts) {
  return Filter(input, predicate, /*zones=*/nullptr, opts, /*stats=*/nullptr);
}

Result<Table> Filter(const Table& input, const Expr& predicate,
                     const ZoneMap* zones, const ExecOptions& opts,
                     FilterExecStats* stats) {
  Table out(input.name(), input.schema());
  const size_t rows = input.num_rows();
  if (rows == 0) return out;  // nothing to evaluate (matches the interpreter)
  LAKEKIT_ASSIGN_OR_RETURN(CompiledExpr compiled,
                           CompiledExpr::Compile(predicate, input.schema()));
  const size_t num_morsels = NumMorsels(rows);
  // Pruning is only sound when chunk m describes exactly morsel m of this
  // table; a mismatched zone map (stale, or built for another table) is
  // ignored rather than trusted.
  const bool prune = zones != nullptr && zones->num_chunks() == num_morsels &&
                     zones->num_columns() == input.num_columns();
  // Per-morsel verdicts land in disjoint pre-sized slots and are tallied
  // after the join — no shared counters on the parallel path.
  enum : uint8_t { kEvaluated = 0, kPruned = 1, kSelectedAll = 2 };
  std::vector<uint8_t> verdicts(num_morsels, kEvaluated);
  // Predicate evaluation fans out per morsel; the gather stays serial and
  // ordered.
  LAKEKIT_ASSIGN_OR_RETURN(
      std::vector<SelVector> selections,
      ParallelMap<SelVector>(
          num_morsels,
          [&](size_t m) -> Result<SelVector> {
            LAKEKIT_RETURN_IF_ERROR(CheckInterrupt(opts));
            const size_t begin = MorselBegin(m);
            const size_t end = MorselEnd(m, rows);
            SelVector sel;
            if (prune) {
              const RangeTruth verdict = compiled.EvaluateRange(
                  zones->chunk(m), input.num_columns());
              if (verdict == RangeTruth::kAlwaysFalse) {
                verdicts[m] = kPruned;
                return sel;  // no row can pass: skip the whole morsel
              }
              if (verdict == RangeTruth::kAlwaysTrue) {
                verdicts[m] = kSelectedAll;
                sel.reserve(end - begin);
                for (size_t r = begin; r < end; ++r) {
                  sel.push_back(static_cast<uint32_t>(r));
                }
                return sel;  // every row passes: select without evaluating
              }
            }
            LAKEKIT_RETURN_IF_ERROR(
                compiled.EvalSelection(input, begin, end, &sel));
            return sel;
          },
          opts.pool));
  if (stats != nullptr) {
    stats->morsels_total += num_morsels;
    for (uint8_t v : verdicts) {
      if (v == kPruned) ++stats->morsels_pruned;
      if (v == kSelectedAll) ++stats->morsels_selected;
    }
  }
  size_t total = 0;
  for (const SelVector& sel : selections) total += sel.size();
  // Charge the materialized output before allocating it. Released when the
  // operator returns: inter-operator table lifetime is the engine's to
  // account, not each operator's.
  ScopedReservation reservation(opts.budget);
  LAKEKIT_RETURN_IF_ERROR(
      reservation.Reserve(total * input.num_columns() * sizeof(Value)));
  out.Reserve(total);
  for (const SelVector& sel : selections) {
    LAKEKIT_RETURN_IF_ERROR(out.AppendRowsFrom(input, sel.data(), sel.size()));
  }
  return out;
}

Result<Table> Project(const Table& input,
                      const std::vector<std::string>& columns) {
  Schema schema;
  std::vector<Table::ColumnSource> sources;
  sources.reserve(columns.size());
  for (const std::string& name : columns) {
    LAKEKIT_ASSIGN_OR_RETURN(size_t idx, input.ColumnIndex(name));
    schema.AddField(input.schema().field(idx));
    sources.push_back(Table::ColumnSource{&input, idx, nullptr});
  }
  // Whole-column copies — no per-row work at all.
  return Table::FromColumns(input.name(), std::move(schema), sources,
                            input.num_rows());
}

namespace {

constexpr uint32_t kNoMatch = Table::kNullRow;

/// Smallest power of two >= max(16, 2 * n).
size_t BucketCount(size_t n) {
  size_t buckets = 16;
  while (buckets < 2 * n) buckets <<= 1;
  return buckets;
}

}  // namespace

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_col,
                       const std::string& right_col, JoinType type,
                       const ExecOptions& opts) {
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

  // Build side: hash every right key once, in parallel (disjoint pre-sized
  // slots), then chain rows into a power-of-two bucket array. Rows are
  // inserted in descending order so each chain reads back in ascending
  // right-row order — the match order the interpreter produces.
  const std::vector<Value>& rkeys = right.column(ridx);
  const size_t n_right = right.num_rows();
  // The build side's size is known exactly before anything is allocated:
  // hash + null flag + chain link per right row, plus the bucket array.
  // Reserve it up front so an over-budget join fails before the first
  // allocation.
  ScopedReservation reservation(opts.budget);
  LAKEKIT_RETURN_IF_ERROR(reservation.Reserve(
      n_right * (sizeof(uint64_t) + sizeof(uint8_t) + sizeof(uint32_t)) +
      BucketCount(n_right) * sizeof(uint32_t)));
  std::vector<uint64_t> rhash(n_right);
  std::vector<uint8_t> rnull(n_right);
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      0, NumMorsels(n_right),
      [&](size_t m) -> Status {
        LAKEKIT_RETURN_IF_ERROR(CheckInterrupt(opts));
        for (size_t r = MorselBegin(m); r < MorselEnd(m, n_right); ++r) {
          rnull[r] = rkeys[r].is_null() ? 1 : 0;
          rhash[r] = rnull[r] != 0 ? 0 : rkeys[r].Hash();
        }
        return Status::OK();
      },
      opts.pool));
  const size_t buckets = BucketCount(n_right);
  const uint64_t mask = buckets - 1;
  std::vector<uint32_t> head(buckets, kNoMatch);
  std::vector<uint32_t> next(n_right, kNoMatch);
  for (size_t r = n_right; r > 0; --r) {
    const size_t i = r - 1;
    if (rnull[i] != 0) continue;
    const size_t b = rhash[i] & mask;
    next[i] = head[b];
    head[b] = static_cast<uint32_t>(i);
  }

  // Probe side: per-morsel (left row, right row) match lists; kNoMatch marks
  // a left-join row without a partner.
  const std::vector<Value>& lkeys = left.column(lidx);
  const size_t n_left = left.num_rows();
  using MatchList = std::vector<std::pair<uint32_t, uint32_t>>;
  LAKEKIT_ASSIGN_OR_RETURN(
      std::vector<MatchList> matches,
      ParallelMap<MatchList>(
          NumMorsels(n_left),
          [&](size_t m) -> Result<MatchList> {
            LAKEKIT_RETURN_IF_ERROR(CheckInterrupt(opts));
            MatchList out_m;
            for (size_t l = MorselBegin(m); l < MorselEnd(m, n_left); ++l) {
              const Value& key = lkeys[l];
              bool matched = false;
              if (!key.is_null()) {
                const uint64_t h = key.Hash();
                for (uint32_t r = head[h & mask]; r != kNoMatch;
                     r = next[r]) {
                  if (rhash[r] == h && rkeys[r] == key) {
                    out_m.emplace_back(static_cast<uint32_t>(l), r);
                    matched = true;
                  }
                }
              }
              if (!matched && type == JoinType::kLeft) {
                out_m.emplace_back(static_cast<uint32_t>(l), kNoMatch);
              }
            }
            // Match lists outlive the morsel (the gather reads them), so
            // they go on the operator-scope reservation, settled after one
            // morsel's growth — an exploding join overruns the budget by at
            // most one in-flight morsel's matches per worker before the
            // refusal lands, the same granularity as deadline checks.
            LAKEKIT_RETURN_IF_ERROR(reservation.Reserve(
                out_m.capacity() * sizeof(std::pair<uint32_t, uint32_t>)));
            return out_m;
          },
          opts.pool));

  // Ordered columnar gather: flatten the match lists into one row-index
  // array per side (an unmatched left row reads NULL on the right).
  size_t total = 0;
  for (const MatchList& m : matches) total += m.size();
  // The output's footprint is now exact; reserve it before the first
  // column is gathered.
  LAKEKIT_RETURN_IF_ERROR(reservation.Reserve(
      total * (2 * sizeof(uint32_t) + schema.num_fields() * sizeof(Value))));
  std::vector<uint32_t> lrows;
  std::vector<uint32_t> rrows;
  lrows.reserve(total);
  rrows.reserve(total);
  for (const MatchList& morsel : matches) {
    for (const auto& [l, r] : morsel) {
      lrows.push_back(l);
      rrows.push_back(r);
    }
  }
  std::vector<Table::ColumnSource> sources;
  sources.reserve(schema.num_fields());
  for (size_t c = 0; c < left.num_columns(); ++c) {
    sources.push_back(Table::ColumnSource{&left, c, lrows.data()});
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    sources.push_back(Table::ColumnSource{&right, c, rrows.data()});
  }
  return Table::FromColumns(left.name() + "_join_" + right.name(),
                            std::move(schema), sources, total);
}

namespace {

/// Per-group aggregation state. Double cells accumulate into `dsum` —
/// within one morsel this is the within-morsel partial; the ordered merge
/// folds partials morsel by morsel, which is the summation order the
/// reference interpreter reproduces with its per-block flush.
struct AggState {
  size_t count = 0;
  int64_t isum = 0;
  double dsum = 0;
  Value min;
  Value max;

  /// Folds `other` (a later morsel's partial) into this state. Ties in
  /// min/max keep the earlier value, matching row-order first-seen.
  void Merge(const AggState& other) {
    count += other.count;
    isum += other.isum;
    dsum += other.dsum;
    if (!other.min.is_null() && (min.is_null() || other.min < min)) {
      min = other.min;
    }
    if (!other.max.is_null() && (max.is_null() || max < other.max)) {
      max = other.max;
    }
  }

  /// The aggregate's value, of the `type` AggOutputType declares for it.
  Value Finish(AggFn fn, DataType type) const {
    switch (fn) {
      case AggFn::kCount:
        return Value(static_cast<int64_t>(count));
      case AggFn::kSum:
        if (count == 0) return Value::Null();
        if (type == DataType::kInt64) return Value(isum);
        return Value(static_cast<double>(isum) + dsum);
      case AggFn::kAvg:
        if (count == 0) return Value::Null();
        return Value((static_cast<double>(isum) + dsum) /
                     static_cast<double>(count));
      case AggFn::kMin:
        return min;
      case AggFn::kMax:
        return max;
    }
    return Value::Null();
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

/// One morsel's partial aggregation: groups in within-morsel first-seen
/// order. `states` is group-major — state for (group g, aggregate i) lives
/// at `states[g * naggs + i]` — so the merge touches one flat allocation
/// instead of a vector-of-vectors.
struct AggPartial {
  std::vector<table::GroupKey> keys;
  std::vector<AggState> states;
};

/// Whether rows `a` and `b` of key lane `v` hold equal keys under `Rule`
/// (NULL equals only NULL). Resolved to a function pointer once per (key
/// lane, morsel), so the probe loop's candidate check is one indirect
/// call with no type dispatch per row.
template <typename Rule>
bool LaneEq(const Vec& v, size_t a, size_t b) {
  if ((v.nulls[a] | v.nulls[b]) != 0) return v.nulls[a] == v.nulls[b];
  const auto& lane = v.*Rule::kLane;
  return Rule::Eq(lane[a], lane[b]);
}
using LaneEqFn = bool (*)(const Vec&, size_t, size_t);

/// Morsel-local group index: a growable open-addressed table mapping a
/// morsel-local key hash (plus an equality check against the group's
/// first-seen row) to a dense group id. It starts at 64 slots — L1-resident
/// for the common low-cardinality morsel, instead of zeroing a
/// 2x-kMorselSize slab per morsel — and doubles when half full, rehashing
/// from the per-group stored hashes (groups are distinct, so no equality
/// checks), which caps the load factor at 1/2 all the way to the
/// one-group-per-row worst case. Rows per group are counted as a side
/// effect, so COUNT(*) needs no second sweep.
class GroupIndex {
 public:
  GroupIndex() : slots_(kInitialSlots) {}

  /// Returns the group id of row `k`, whose key hashes to `h`; `eq(k0)`
  /// decides whether row k's key equals the key first seen at row `k0`.
  template <typename EqFn>
  uint32_t Insert(uint64_t h, uint32_t k, EqFn&& eq) {
    const size_t mask = slots_.size() - 1;
    size_t s = h & mask;
    while (true) {
      Slot& slot = slots_[s];
      if (slot.gi == kNoMatch) {
        const uint32_t gi = static_cast<uint32_t>(first_row_.size());
        slot.hash = h;
        slot.gi = gi;
        first_row_.push_back(k);
        hashes_.push_back(h);
        counts_.push_back(1);
        if (2 * first_row_.size() >= slots_.size()) Grow();
        return gi;
      }
      if (slot.hash == h && eq(first_row_[slot.gi])) {
        ++counts_[slot.gi];
        return slot.gi;
      }
      s = (s + 1) & mask;
    }
  }

  /// Global-aggregate shortcut: one group covering `count` rows, first row 0.
  void SetSingleGroup(uint32_t count) {
    first_row_.assign(1, 0);
    hashes_.assign(1, 0);
    counts_.assign(1, count);
  }

  const std::vector<uint32_t>& first_row() const { return first_row_; }
  const std::vector<uint32_t>& counts() const { return counts_; }

 private:
  static constexpr size_t kInitialSlots = 64;  // power of two
  struct Slot {
    uint64_t hash = 0;
    uint32_t gi = kNoMatch;
  };

  void Grow() {
    std::vector<Slot> next(slots_.size() * 2);
    const size_t mask = next.size() - 1;
    for (size_t gi = 0; gi < hashes_.size(); ++gi) {
      size_t s = hashes_[gi] & mask;
      while (next[s].gi != kNoMatch) s = (s + 1) & mask;
      next[s].hash = hashes_[gi];
      next[s].gi = static_cast<uint32_t>(gi);
    }
    slots_ = std::move(next);
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> first_row_;  // group -> first row (morsel-relative)
  std::vector<uint64_t> hashes_;     // group -> probe hash, for Grow
  std::vector<uint32_t> counts_;     // group -> rows seen
};

/// Fused single-key group assignment: hashes and probes straight off the
/// key column's Values under `Rule` — no lane build, no row-hash array.
template <typename Rule>
void ProbeTypedKey(const std::vector<Value>& cells, size_t mbegin, size_t n,
                   GroupIndex* idx, uint32_t* group_of) {
  for (size_t k = 0; k < n; ++k) {
    const auto* pv = Rule::Get(cells[mbegin + k]);  // nullptr: a NULL key
    const uint64_t h = pv != nullptr ? Rule::Hash(*pv) : kNullCellHash;
    group_of[k] =
        idx->Insert(h, static_cast<uint32_t>(k), [&](uint32_t k0) {
          const auto* p0 = Rule::Get(cells[mbegin + k0]);
          if (p0 == nullptr || pv == nullptr) {
            return p0 == nullptr && pv == nullptr;  // NULL equals only NULL
          }
          return Rule::Eq(*p0, *pv);
        });
  }
}

/// Morsel-local per-group partials of one aggregate input column (T is
/// its payload type): what its aggregates need, indexed by group.
template <typename T>
struct SweepPartial {
  std::vector<size_t> cnt;
  std::vector<T> sum;         // when a SUM or AVG reads an int64 or double
  std::vector<uint8_t> has;   // extrema, when a MIN or MAX reads it
  std::vector<T> mn;
  std::vector<T> mx;
};

/// SUM and AVG add int64 and double payloads; over a bool or string column
/// they only count.
template <typename T>
constexpr bool kSummable =
    std::is_same_v<T, int64_t> || std::is_same_v<T, double>;

/// Fused typed sweep: one traversal of a column's cells computes the union
/// of what its aggregates need into `out`, reading Values in place under
/// `Rule` — no lane materialization pass. Instantiated per need-combination
/// so the inner loop carries no dead work or runtime flags.
template <typename Rule, bool kWantSum, bool kWantMinMax>
void Sweep(const std::vector<Value>& cells, size_t mbegin,
           const uint32_t* group_of, size_t n,
           SweepPartial<typename Rule::Payload>* out) {
  for (size_t k = 0; k < n; ++k) {
    const auto* pv = Rule::Get(cells[mbegin + k]);
    if (pv == nullptr) continue;  // a NULL cell
    const uint32_t g = group_of[k];
    const typename Rule::Payload v = *pv;
    ++out->cnt[g];
    if constexpr (kWantSum && kSummable<typename Rule::Payload>) {
      out->sum[g] += v;
    }
    if constexpr (kWantMinMax) {
      // The extrema keep their type (exact int64s) while the rule orders
      // them. Less is false for NaN, so a NaN that arrives first sticks,
      // as under Value's order.
      if (out->has[g] == 0) {
        out->has[g] = 1;
        out->mn[g] = out->mx[g] = v;
      } else {
        if (Rule::Less(v, out->mn[g])) out->mn[g] = v;
        if (Rule::Less(out->mx[g], v)) out->mx[g] = v;
      }
    }
  }
}

template <typename Rule>
SweepPartial<typename Rule::Payload> SweepColumn(
    const std::vector<Value>& cells, size_t mbegin, const uint32_t* group_of,
    size_t n, size_t ngroups, bool want_sum, bool want_minmax) {
  using T = typename Rule::Payload;
  SweepPartial<T> p;
  p.cnt.assign(ngroups, 0);
  if (want_sum && kSummable<T>) p.sum.assign(ngroups, T{});
  if (want_minmax) {
    p.has.assign(ngroups, 0);
    p.mn.resize(ngroups);
    p.mx.resize(ngroups);
  }
  if (want_sum && want_minmax) {
    Sweep<Rule, true, true>(cells, mbegin, group_of, n, &p);
  } else if (want_sum) {
    Sweep<Rule, true, false>(cells, mbegin, group_of, n, &p);
  } else if (want_minmax) {
    Sweep<Rule, false, true>(cells, mbegin, group_of, n, &p);
  } else {
    Sweep<Rule, false, false>(cells, mbegin, group_of, n, &p);
  }
  return p;
}

/// Folds a sweep's partials into the zeroed per-group states of aggregate
/// `i` (state of group g at `states[g * naggs + i]`). Folding into zeroed
/// states reproduces the direct-accumulation bit pattern exactly
/// (0 + x == x), and aggregates sharing a column (SUM + AVG of one
/// measure) share the identical row-order partial.
template <typename T>
void FoldSweep(const SweepPartial<T>& p, AggFn fn, size_t i, size_t naggs,
               std::vector<AggState>* states) {
  for (size_t g = 0; g < p.cnt.size(); ++g) {
    AggState& st = (*states)[g * naggs + i];
    if (fn == AggFn::kMin || fn == AggFn::kMax) {
      if (p.has[g] == 0) continue;
      st.min = Value(p.mn[g]);
      st.max = Value(p.mx[g]);
      continue;
    }
    st.count += p.cnt[g];
    if (fn == AggFn::kCount) continue;
    if constexpr (std::is_same_v<T, int64_t>) {
      st.isum += p.sum[g];  // exact integer accumulation
    } else if constexpr (std::is_same_v<T, double>) {
      st.dsum += p.sum[g];
    }
  }
}

}  // namespace

Result<Table> Aggregate(const Table& input,
                        const std::vector<std::string>& group_by,
                        const std::vector<AggSpec>& aggs,
                        const ExecOptions& opts) {
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

  // Per-morsel partial aggregation, then an ordered merge: global group
  // order is first-seen in (morsel, within-morsel) order, which equals
  // first-seen in row order.
  //
  // Each morsel runs two column-at-a-time passes. Pass 1 assigns every row
  // a group index via a flat open-addressed table: the key cells are hashed
  // in place, and a key vector is materialized only the first time a group
  // is seen, so the per-row cost is hashing plus a probe. Pass 2 walks each
  // aggregate input column once; the type dispatch happens once per
  // (column, morsel), not per cell.
  const size_t rows = input.num_rows();
  ScopedReservation reservation(opts.budget);
  LAKEKIT_ASSIGN_OR_RETURN(
      std::vector<AggPartial> partials,
      ParallelMap<AggPartial>(
          NumMorsels(rows),
          [&](size_t m) -> Result<AggPartial> {
            LAKEKIT_RETURN_IF_ERROR(CheckInterrupt(opts));
            AggPartial p;
            const size_t mbegin = MorselBegin(m);
            const size_t mend = MorselEnd(m, rows);
            const size_t n = mend - mbegin;
            // Morsel-transient state (group assignment, probe table) is
            // held on a morsel-scope reservation and returned when the
            // morsel finishes; the partial itself — which the merge still
            // needs — lands on the operator-scope reservation just before
            // return.
            ScopedReservation scratch(opts.budget);
            LAKEKIT_RETURN_IF_ERROR(scratch.Reserve(n * sizeof(uint32_t)));

            // Pass 1: group assignment through a growable morsel-local
            // probe table (GroupIndex), under the cell rule. A single key
            // column takes the fused fast path, hashing and probing
            // straight off the column's Values. Several key columns load
            // into lanes, hash lane-at-a-time (see HashLane — equal cells
            // hash equal, which is all the probe table needs), and compare
            // candidates against the group's first-seen row with per-lane
            // equality function pointers, so neither path touches a variant
            // dispatch in the row loop. Key Values materialize once per
            // group after the loop — straight from the input cells — with
            // the Value::Hash-based GroupKey hash the cross-morsel merge
            // keys on.
            GroupIndex idx;
            std::vector<uint32_t> group_of(n);
            if (group_idx.empty()) {
              // Global aggregate: one group, no probing.
              std::fill(group_of.begin(), group_of.end(), 0u);
              idx.SetSingleGroup(static_cast<uint32_t>(n));
            } else if (group_idx.size() == 1) {
              VisitCellRule(input.schema().field(group_idx[0]).type,
                            [&](auto rule) {
                              ProbeTypedKey<decltype(rule)>(
                                  input.column(group_idx[0]), mbegin, n, &idx,
                                  group_of.data());
                            });
            } else {
              std::vector<Vec> key_lanes;
              key_lanes.reserve(group_idx.size());
              for (size_t g : group_idx) {
                key_lanes.push_back(LoadColumn(
                    input, g, input.schema().field(g).type, mbegin, mend));
              }
              std::vector<uint64_t> rowhash(n, 0);
              std::vector<LaneEqFn> lane_eq;
              lane_eq.reserve(key_lanes.size());
              for (const Vec& lane : key_lanes) {
                HashLane(lane, n, rowhash.data());
                lane_eq.push_back(
                    VisitCellRule(lane.type, [](auto rule) -> LaneEqFn {
                      return &LaneEq<decltype(rule)>;
                    }));
              }
              for (size_t k = 0; k < n; ++k) {
                group_of[k] = idx.Insert(
                    rowhash[k], static_cast<uint32_t>(k), [&](uint32_t k0) {
                      for (size_t g = 0; g < key_lanes.size(); ++g) {
                        if (!lane_eq[g](key_lanes[g], k0, k)) return false;
                      }
                      return true;
                    });
              }
            }
            const std::vector<uint32_t>& first_row = idx.first_row();
            // Probe-table footprint, reconstructed from the group count:
            // slots stay within 4x the group count (load factor >= 1/4 right
            // after a grow) at 16 bytes each, plus the three per-group
            // arrays behind them.
            LAKEKIT_RETURN_IF_ERROR(scratch.Reserve(
                std::max<size_t>(64, 4 * first_row.size()) * 16 +
                first_row.size() *
                    (sizeof(uint32_t) * 2 + sizeof(uint64_t))));
            p.keys.reserve(first_row.size());
            for (const uint32_t k0 : first_row) {
              table::GroupKey key;
              key.values.reserve(group_idx.size());
              for (const size_t gc : group_idx) {
                key.Add(input.column(gc)[mbegin + k0]);
              }
              p.keys.push_back(std::move(key));
            }
            p.states.resize(p.keys.size() * aggs.size());

            // Pass 2: one fused sweep per distinct aggregate input
            // column. Each sweep accumulates the union of what that
            // column's aggregates need (count / sum / extrema) into small
            // per-morsel arrays indexed by group — L1-resident, no AggState
            // pointer chasing in the row loop — folded into `p.states` once
            // per group per aggregate (FoldSweep).
            const size_t ngroups = p.keys.size();
            const size_t naggs = aggs.size();
            constexpr size_t kNoCol = static_cast<size_t>(-1);
            // COUNT(*): the probe already counted rows per group.
            for (size_t i = 0; i < naggs; ++i) {
              if (aggs[i].fn != AggFn::kCount || agg_idx[i] != kNoCol) {
                continue;
              }
              const std::vector<uint32_t>& gcounts = idx.counts();
              for (size_t g = 0; g < ngroups; ++g) {
                p.states[g * naggs + i].count += gcounts[g];
              }
            }
            struct ColPlan {
              size_t col = 0;
              bool want_sum = false;
              bool want_minmax = false;
              std::vector<size_t> agg_ids;
            };
            std::vector<ColPlan> plans;
            for (size_t i = 0; i < naggs; ++i) {
              if (agg_idx[i] == kNoCol) continue;
              ColPlan* plan = nullptr;
              for (ColPlan& c : plans) {
                if (c.col == agg_idx[i]) {
                  plan = &c;
                  break;
                }
              }
              if (plan == nullptr) {
                plans.push_back(ColPlan{agg_idx[i], false, false, {}});
                plan = &plans.back();
              }
              const AggFn fn = aggs[i].fn;
              plan->want_sum |= fn == AggFn::kSum || fn == AggFn::kAvg;
              plan->want_minmax |= fn == AggFn::kMin || fn == AggFn::kMax;
              plan->agg_ids.push_back(i);
            }
            for (const ColPlan& plan : plans) {
              VisitCellRule(
                  input.schema().field(plan.col).type, [&](auto rule) {
                    const auto sp = SweepColumn<decltype(rule)>(
                        input.column(plan.col), mbegin, group_of.data(), n,
                        ngroups, plan.want_sum, plan.want_minmax);
                    for (const size_t i : plan.agg_ids) {
                      FoldSweep(sp, aggs[i].fn, i, naggs, &p.states);
                    }
                  });
            }
            // The partial survives until the ordered merge consumes it:
            // charge it on the operator-scope reservation (scratch unwinds
            // here, returning the morsel's transient bytes).
            LAKEKIT_RETURN_IF_ERROR(reservation.Reserve(
                p.states.size() * sizeof(AggState) +
                p.keys.size() * (sizeof(table::GroupKey) +
                                 group_idx.size() * sizeof(Value))));
            return p;
          },
          opts.pool));

  const size_t naggs = aggs.size();
  // Upper-bound the merged table by the sum of the per-morsel group counts
  // (deduplication only shrinks it) and reserve before building the map —
  // the partials are still alive during the merge, so this is genuinely
  // additional memory.
  size_t groups_upper = 0;
  for (const AggPartial& p : partials) groups_upper += p.keys.size();
  LAKEKIT_RETURN_IF_ERROR(reservation.Reserve(
      groups_upper *
      (sizeof(table::GroupKey) + group_idx.size() * sizeof(Value) +
       naggs * sizeof(AggState) + 4 * sizeof(void*))));
  std::unordered_map<table::GroupKey, size_t, table::GroupKeyHash> index;
  std::vector<table::GroupKey> keys;
  std::vector<AggState> states;  // group-major, like AggPartial::states
  for (const AggPartial& p : partials) {
    for (size_t g = 0; g < p.keys.size(); ++g) {
      auto [it, inserted] = index.try_emplace(p.keys[g], keys.size());
      if (inserted) {
        keys.push_back(p.keys[g]);
        states.resize(states.size() + naggs);
      }
      for (size_t i = 0; i < naggs; ++i) {
        states[it->second * naggs + i].Merge(p.states[g * naggs + i]);
      }
    }
  }
  // Global aggregate over empty input still yields one row.
  if (group_by.empty() && keys.empty()) {
    keys.emplace_back();
    states.resize(naggs);
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
  LAKEKIT_RETURN_IF_ERROR(reservation.Reserve(
      keys.size() * schema.num_fields() * sizeof(Value)));
  out.Reserve(keys.size());
  for (size_t g = 0; g < keys.size(); ++g) {
    std::vector<Value> row = keys[g].values;
    for (size_t i = 0; i < naggs; ++i) {
      row.push_back(states[g * naggs + i].Finish(
          aggs[i].fn, schema.field(group_idx.size() + i).type));
    }
    LAKEKIT_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
  }
  return out;
}

Result<Table> Sort(const Table& input, const std::string& column,
                   bool ascending, const ExecOptions& opts) {
  LAKEKIT_RETURN_IF_ERROR(CheckInterrupt(opts));
  LAKEKIT_ASSIGN_OR_RETURN(size_t idx, input.ColumnIndex(column));
  const std::vector<Value>& cells = input.column(idx);
  const size_t rows = input.num_rows();
  ScopedReservation reservation(opts.budget);
  std::vector<uint32_t> order;
  LAKEKIT_RETURN_IF_ERROR(VisitCellRule(
      input.schema().field(idx).type, [&](auto rule) -> Status {
        using Key = typename decltype(rule)::Payload;
        // The typed keys, their NULL flags and the permutation are sized
        // exactly by the row count: reserve before any is allocated.
        LAKEKIT_RETURN_IF_ERROR(reservation.Reserve(
            rows * (sizeof(Key) + sizeof(uint8_t) + sizeof(uint32_t))));
        // Decode every key once; comparisons then read typed arrays.
        std::vector<Key> keys(rows);
        std::vector<uint8_t> null(rows, 0);
        for (size_t r = 0; r < rows; ++r) {
          if (const auto* pv = rule.Get(cells[r])) {
            keys[r] = *pv;
          } else {
            null[r] = 1;
          }
        }
        // NULL sorts before every payload and ties with NULL.
        auto less = [&](uint32_t a, uint32_t b) {
          if ((null[a] | null[b]) != 0) return null[a] > null[b];
          return rule.Less(keys[a], keys[b]);
        };
        order.resize(rows);
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](uint32_t a, uint32_t b) {
                           return ascending ? less(a, b) : less(b, a);
                         });
        return Status::OK();
      }));
  LAKEKIT_RETURN_IF_ERROR(
      reservation.Reserve(rows * input.num_columns() * sizeof(Value)));
  Table out(input.name(), input.schema());
  out.Reserve(rows);
  LAKEKIT_RETURN_IF_ERROR(out.AppendRowsFrom(input, order.data(), rows));
  return out;
}

table::Table Limit(const Table& input, size_t n) {
  const size_t rows = std::min(input.num_rows(), n);
  Table out(input.name(), input.schema());
  out.Reserve(rows);
  // ignore: `out` shares `input`'s schema by construction.
  (void)out.AppendRowsFrom(input, /*rows=*/nullptr, rows);
  return out;
}

}  // namespace lakekit::query
