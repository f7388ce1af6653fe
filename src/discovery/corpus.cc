#include "discovery/corpus.h"

#include <algorithm>
#include <cctype>

#include "text/tokenize.h"

namespace lakekit::discovery {

size_t ExactOverlap(const ColumnSketch& a, const ColumnSketch& b) {
  return text::SortedOverlap(a.sorted_values, b.sorted_values);
}

double ExactJaccard(const ColumnSketch& a, const ColumnSketch& b) {
  size_t inter = ExactOverlap(a, b);
  size_t uni = a.sorted_values.size() + b.sorted_values.size() - inter;
  return uni == 0 ? 0.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

double ExactContainment(const ColumnSketch& a, const ColumnSketch& b) {
  if (a.sorted_values.empty()) return 0.0;
  return static_cast<double>(ExactOverlap(a, b)) /
         static_cast<double>(a.sorted_values.size());
}

std::string FormatPattern(std::string_view value) {
  std::string out;
  char last = 0;
  for (char raw : value) {
    unsigned char c = static_cast<unsigned char>(raw);
    char cls;
    if (std::isdigit(c)) {
      cls = 'd';
    } else if (std::isalpha(c)) {
      cls = 'a';
    } else {
      cls = raw;
    }
    // Collapse runs of the same class (only for d/a classes).
    if ((cls == 'd' || cls == 'a') && cls == last) continue;
    out.push_back(cls);
    last = cls;
  }
  return out;
}

namespace {

/// A column's sketch but for its dictionary ids, its distinct rendered
/// values counted into `values`: a pure function of the column.
ColumnSketch BuildSketch(ColumnId id, const table::Table& t, size_t col,
                         const text::MinHasher& minhasher,
                         const text::EmbeddingModel& embedder,
                         text::StringCounter* values) {
  ColumnSketch sketch;
  sketch.id = id;
  sketch.table_name = t.name();
  sketch.column_name = t.schema().field(col).name;
  sketch.type = t.schema().field(col).type;
  sketch.name_tokens = text::Tokenize(sketch.column_name);
  sketch.name_grams = text::NameGrams(sketch.column_name);
  sketch.row_count = t.column(col).size();

  // Distinct values + format histogram + numeric sample, the innermost loop
  // of ingestion. Each value's hash, taken once by the counter, serves the
  // MinHash below and the corpus dictionary's probe later.
  std::string rendered;
  for (const table::Value& v : t.column(col)) {
    if (v.is_null()) {
      ++sketch.null_count;
      continue;
    }
    const std::string_view s = v.Render(&rendered);
    if (values->count(values->Add(s)) != 1) continue;
    ++sketch.format_histogram[FormatPattern(s)];
    if (v.is_numeric() && sketch.numeric_values.size() < kNumericSampleCap) {
      sketch.numeric_values.push_back(v.as_double());
    }
  }
  sketch.minhash = minhasher.ComputeFromHashes(values->hashes());

  // Embed a capped prefix of the distinct values (textual columns only —
  // embeddings of numbers carry no semantics).
  if (sketch.type == table::DataType::kString) {
    std::vector<std::string> tokens;
    for (uint32_t i = 0; i < values->size(); ++i) {
      if (tokens.size() >= kEmbeddingTokenCap) break;
      for (std::string& tok : text::Tokenize((*values)[i])) {
        tokens.push_back(std::move(tok));
      }
    }
    sketch.embedding = embedder.EmbedAll(tokens);
  } else {
    sketch.embedding.assign(kEmbeddingDim, 0.0);
  }
  return sketch;
}

}  // namespace

Corpus::Corpus() : minhasher_(kMinHashSize), embedder_(kEmbeddingDim) {}

void Corpus::RegisterSemanticDomain(const std::string& domain,
                                    const std::vector<std::string>& tokens) {
  embedder_.RegisterDomain(domain, tokens);
}

Result<size_t> Corpus::AddTable(table::Table t) {
  std::vector<table::Table> batch;
  batch.push_back(std::move(t));
  LAKEKIT_ASSIGN_OR_RETURN(std::vector<size_t> indexes,
                           AddTables(std::move(batch)));
  return indexes.front();
}

Result<std::vector<size_t>> Corpus::AddTables(std::vector<table::Table> tables,
                                              ThreadPool* pool) {
  // Validate the whole batch before mutating anything.
  std::map<std::string, size_t, std::less<>> batch_names;
  for (const table::Table& t : tables) {
    if (table_index_.find(t.name()) != table_index_.end() ||
        !batch_names.emplace(t.name(), 0).second) {
      return Status::AlreadyExists("table '" + t.name() +
                                   "' already in corpus");
    }
  }

  const size_t first_table = tables_.size();
  const size_t first_sketch = sketches_.size();
  std::vector<size_t> indexes;
  indexes.reserve(tables.size());

  // Serial bookkeeping: append tables, reserve one contiguous sketch slot
  // per column, and record the slot -> (table, column) mapping the parallel
  // workers will fill.
  struct Slot {
    size_t table_idx;
    size_t col;
  };
  std::vector<Slot> slots;
  tables_.reserve(first_table + tables.size());
  for (table::Table& t : tables) {
    size_t table_idx = tables_.size();
    indexes.push_back(table_idx);
    table_index_[t.name()] = table_idx;
    tables_.push_back(std::move(t));
    size_t begin = first_sketch + slots.size();
    for (size_t c = 0; c < tables_.back().num_columns(); ++c) {
      slots.push_back(Slot{table_idx, c});
    }
    sketch_range_.emplace_back(begin, first_sketch + slots.size());
  }
  sketches_.resize(first_sketch + slots.size());

  // Parallel sketch building: each task writes exactly one pre-sized slot,
  // and BuildSketch reads only const state (tables_, minhasher_, embedder_),
  // so the result does not depend on the pool's size.
  std::vector<text::StringCounter> values(slots.size());
  ParallelOptions par;
  par.pool = pool;
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      0, slots.size(),
      [&](size_t i) -> Status {
        const Slot& slot = slots[i];
        ColumnId id{static_cast<uint32_t>(slot.table_idx),
                    static_cast<uint32_t>(slot.col)};
        sketches_[first_sketch + i] =
            BuildSketch(id, tables_[slot.table_idx], slot.col, minhasher_,
                        embedder_, &values[i]);
        return Status::OK();
      },
      par));

  // Serial interning in slot order, each column in first-seen order, so ids
  // follow (table, column, row) whatever the pool or the batching; the
  // hashes come from the parallel pass, and the table grows once.
  size_t incoming = 0;
  for (const text::StringCounter& column : values) incoming += column.size();
  dictionary_.Reserve(incoming);
  for (size_t i = 0; i < slots.size(); ++i) {
    sketches_[first_sketch + i].distinct_values =
        dictionary_.InternAll(values[i].dictionary(), values[i].hashes());
  }
  // The column values are freed here, in parallel, by the pool.
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      first_sketch, sketches_.size(),
      [&](size_t i) -> Status {
        values[i - first_sketch] = text::StringCounter();
        ColumnSketch& s = sketches_[i];
        s.sorted_values = s.distinct_values;
        std::sort(s.sorted_values.begin(), s.sorted_values.end());
        return Status::OK();
      },
      par));
  return indexes;
}

Result<size_t> Corpus::TableIndex(std::string_view name) const {
  auto it = table_index_.find(name);
  if (it == table_index_.end()) {
    return Status::NotFound("no table '" + std::string(name) +
                            "' in corpus");
  }
  return it->second;
}

const ColumnSketch& Corpus::sketch(ColumnId id) const {
  // An id this corpus does not hold must not read past the end or another
  // table's column.
  if (id.table_idx >= sketch_range_.size() ||
      id.col_idx >= sketch_range_[id.table_idx].second -
                        sketch_range_[id.table_idx].first) {
    LAKEKIT_CHECK_OK(Status::OutOfRange("column id not in corpus"));
  }
  return sketches_[sketch_range_[id.table_idx].first + id.col_idx];
}

std::vector<const ColumnSketch*> Corpus::TableSketches(
    size_t table_idx) const {
  std::vector<const ColumnSketch*> out;
  if (table_idx >= sketch_range_.size()) return out;
  const auto& [begin, end] = sketch_range_[table_idx];
  out.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    out.push_back(&sketches_[i]);
  }
  return out;
}

Result<ColumnId> Corpus::FindColumn(std::string_view table,
                                    std::string_view column) const {
  LAKEKIT_ASSIGN_OR_RETURN(size_t table_idx, TableIndex(table));
  LAKEKIT_ASSIGN_OR_RETURN(size_t col_idx,
                           tables_[table_idx].ColumnIndex(column));
  return ColumnId{static_cast<uint32_t>(table_idx),
                  static_cast<uint32_t>(col_idx)};
}

}  // namespace lakekit::discovery
