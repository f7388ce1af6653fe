#include "discovery/corpus.h"

#include <algorithm>
#include <cctype>

#include "text/tokenize.h"

namespace lakekit::discovery {

size_t ExactOverlap(const ColumnSketch& a, const ColumnSketch& b) {
  const ColumnSketch& small = a.value_set.size() <= b.value_set.size() ? a : b;
  const ColumnSketch& large = a.value_set.size() <= b.value_set.size() ? b : a;
  size_t overlap = 0;
  for (const std::string& v : small.value_set) {
    if (large.value_set.count(v) > 0) ++overlap;
  }
  return overlap;
}

double ExactJaccard(const ColumnSketch& a, const ColumnSketch& b) {
  size_t inter = ExactOverlap(a, b);
  size_t uni = a.value_set.size() + b.value_set.size() - inter;
  return uni == 0 ? 0.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

double ExactContainment(const ColumnSketch& a, const ColumnSketch& b) {
  if (a.value_set.empty()) return 0.0;
  return static_cast<double>(ExactOverlap(a, b)) /
         static_cast<double>(a.value_set.size());
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

Corpus::Corpus(CorpusOptions options)
    : options_(options),
      minhasher_(options.minhash_size),
      embedder_(options.embedding_dim) {}

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
      ColumnId id{static_cast<uint32_t>(table_idx), static_cast<uint32_t>(c)};
      sketch_index_[id.Packed()] = first_sketch + slots.size() - 1;
    }
    sketch_range_.emplace_back(begin, first_sketch + slots.size());
  }
  sketches_.resize(first_sketch + slots.size());

  // Parallel sketch building: each task writes exactly one pre-sized slot,
  // and BuildSketch reads only const state (tables_, minhasher_, embedder_),
  // so the result does not depend on the pool's size.
  ParallelOptions par;
  par.pool = pool;
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      0, slots.size(),
      [&](size_t i) -> Status {
        const Slot& slot = slots[i];
        ColumnId id{static_cast<uint32_t>(slot.table_idx),
                    static_cast<uint32_t>(slot.col)};
        sketches_[first_sketch + i] =
            BuildSketch(id, tables_[slot.table_idx], slot.col);
        return Status::OK();
      },
      par));
  return indexes;
}

ColumnSketch Corpus::BuildSketch(ColumnId id, const table::Table& t,
                                 size_t col) {
  ColumnSketch sketch;
  sketch.id = id;
  sketch.table_name = t.name();
  sketch.column_name = t.schema().field(col).name;
  sketch.type = t.schema().field(col).type;
  sketch.name_tokens = text::Tokenize(sketch.column_name);
  sketch.profile =
      ingest::Profiler::ProfileColumn(sketch.column_name, t.column(col));

  // Distinct values + set + format histogram + numeric sample. This is the
  // innermost loop of ingestion: pre-size both containers from the column
  // size and move each rendered value straight into the set (the vector
  // takes its one copy from the set node) instead of the old
  // render-insert-copy pattern.
  const std::vector<table::Value>& values = t.column(col);
  sketch.distinct_values.reserve(values.size());
  sketch.value_set.reserve(values.size());
  for (const table::Value& v : values) {
    if (v.is_null()) continue;
    auto [it, inserted] = sketch.value_set.insert(v.ToString());
    if (inserted) {
      const std::string& s = *it;
      sketch.distinct_values.push_back(s);
      ++sketch.format_histogram[FormatPattern(s)];
      if (v.is_numeric() &&
          sketch.numeric_values.size() < options_.numeric_sample_cap) {
        sketch.numeric_values.push_back(v.as_double());
      }
    }
  }
  sketch.minhash = minhasher_.Compute(sketch.distinct_values);

  // Embed a capped prefix of the distinct values (textual columns only —
  // embeddings of numbers carry no semantics).
  if (sketch.type == table::DataType::kString) {
    std::vector<std::string> tokens;
    for (const std::string& v : sketch.distinct_values) {
      if (tokens.size() >= options_.embedding_token_cap) break;
      for (const std::string& tok : text::Tokenize(v)) {
        tokens.push_back(tok);
      }
    }
    sketch.embedding = embedder_.EmbedAll(tokens);
  } else {
    sketch.embedding.assign(options_.embedding_dim, 0.0);
  }
  return sketch;
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
  return sketches_[sketch_index_.at(id.Packed())];
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
