#include "workload/generator.h"

#include <algorithm>
#include <set>

#include "common/hash.h"

namespace lakekit::workload {

using table::DataType;
using table::Field;
using table::Schema;
using table::Table;
using table::Value;

namespace {

/// Unique background value: never collides across columns.
std::string BackgroundValue(size_t table_idx, size_t col_idx, size_t i) {
  return "bg" + std::to_string(table_idx) + "c" + std::to_string(col_idx) +
         "v" + std::to_string(i);
}

}  // namespace

JoinableLake MakeJoinableLake(const JoinableLakeOptions& options,
                              ThreadPool* pool) {
  Rng rng(options.seed);
  JoinableLake lake;

  // Decide which (table, column) slots receive planted value sets. Each
  // planted pair uses the first text column of two distinct tables; a table
  // participates in at most one pair on a given column to keep ground truth
  // clean.
  struct Slot {
    size_t table;
    size_t col;  // text column index (0-based among text columns)
  };
  std::vector<std::pair<Slot, Slot>> pair_slots;
  {
    std::vector<size_t> table_ids(options.num_tables);
    for (size_t i = 0; i < options.num_tables; ++i) table_ids[i] = i;
    rng.Shuffle(&table_ids);
    size_t next = 0;
    for (size_t p = 0; p < options.num_planted_pairs &&
                       next + 1 < table_ids.size();
         ++p, next += 2) {
      size_t col_a = rng.Below(options.text_cols_per_table);
      size_t col_b = rng.Below(options.text_cols_per_table);
      pair_slots.push_back({Slot{table_ids[next], col_a},
                            Slot{table_ids[next + 1], col_b}});
    }
  }

  // Planted value sets: for target Jaccard J with each side holding n
  // values, shared = round(2nJ/(1+J)).
  const size_t n = options.rows_per_table;
  std::map<uint64_t, std::vector<std::string>> planted_values;  // slot key
  auto slot_key = [](const Slot& s) {
    return (static_cast<uint64_t>(s.table) << 16) | s.col;
  };
  size_t planted_group = 0;
  for (const auto& [a, b] : pair_slots) {
    const double j = options.overlap_jaccard;
    const size_t shared =
        static_cast<size_t>(2.0 * static_cast<double>(n) * j / (1.0 + j));
    const size_t unique = n - shared;
    std::vector<std::string> va;
    std::vector<std::string> vb;
    std::string prefix = "pl" + std::to_string(planted_group++);
    for (size_t i = 0; i < shared; ++i) {
      std::string v = prefix + "s" + std::to_string(i);
      va.push_back(v);
      vb.push_back(v);
    }
    for (size_t i = 0; i < unique; ++i) {
      va.push_back(prefix + "a" + std::to_string(i));
      vb.push_back(prefix + "b" + std::to_string(i));
    }
    planted_values[slot_key(a)] = std::move(va);
    planted_values[slot_key(b)] = std::move(vb);
  }

  // Build the tables: id (unique int), measure (double), text columns.
  // Row generation dominates fixture wall time, so tables fill in parallel;
  // each table owns a distinct slot and an Rng seeded from (seed, t), making
  // the lake bit-identical for any thread count. The planted_values map is
  // read-only from here on.
  Schema schema;
  schema.AddField(Field{"id", DataType::kInt64, false});
  schema.AddField(Field{"measure", DataType::kDouble, true});
  for (size_t c = 0; c < options.text_cols_per_table; ++c) {
    schema.AddField(
        Field{"attr" + std::to_string(c), DataType::kString, true});
  }
  lake.tables.reserve(options.num_tables);
  for (size_t t = 0; t < options.num_tables; ++t) {
    lake.tables.emplace_back("table" + std::to_string(t), schema);
  }
  // The per-table lambda is infallible (rows match the schema by
  // construction), so a failure here can only be a bug.
  LAKEKIT_CHECK_OK(ParallelFor(
      0, options.num_tables,
      [&](size_t t) -> Status {
        Rng trng(Mix64(options.seed + 0x9e3779b97f4a7c15ULL * (t + 1)));
        Table& tbl = lake.tables[t];
        for (size_t r = 0; r < options.rows_per_table; ++r) {
          std::vector<Value> row;
          row.push_back(Value(static_cast<int64_t>(t * 1000000 + r)));
          row.push_back(Value(trng.NextGaussian() * 10.0 +
                              static_cast<double>(t)));
          for (size_t c = 0; c < options.text_cols_per_table; ++c) {
            auto it = planted_values.find(slot_key(Slot{t, c}));
            if (it != planted_values.end()) {
              row.push_back(Value(it->second[r % it->second.size()]));
            } else {
              row.push_back(Value(BackgroundValue(t, c, r)));
            }
          }
          LAKEKIT_RETURN_IF_ERROR(tbl.AppendRow(std::move(row)));
        }
        return Status::OK();
      },
      pool));

  for (size_t p = 0; p < pair_slots.size(); ++p) {
    const auto& [a, b] = pair_slots[p];
    lake.planted.push_back(PlantedPair{
        "table" + std::to_string(a.table), "attr" + std::to_string(a.col),
        "table" + std::to_string(b.table), "attr" + std::to_string(b.col),
        options.overlap_jaccard});
  }
  return lake;
}

UnionableLake MakeUnionableLake(const UnionableLakeOptions& options) {
  Rng rng(options.seed);
  UnionableLake lake;

  // One set of domains per group; each column of a group's tables draws
  // from the group's domain for that column position.
  for (size_t g = 0; g < options.num_groups; ++g) {
    for (size_t c = 0; c < options.cols_per_table; ++c) {
      std::string domain =
          "domain_g" + std::to_string(g) + "c" + std::to_string(c);
      std::vector<std::string> terms;
      for (size_t i = 0; i < options.terms_per_domain; ++i) {
        terms.push_back(domain + "_t" + std::to_string(i));
      }
      lake.domains[domain] = std::move(terms);
    }
  }

  size_t table_counter = 0;
  for (size_t g = 0; g < options.num_groups; ++g) {
    for (size_t t = 0; t < options.tables_per_group; ++t) {
      Schema schema;
      for (size_t c = 0; c < options.cols_per_table; ++c) {
        // Same column names within a group, distinct across groups.
        schema.AddField(Field{"g" + std::to_string(g) + "_field" +
                                  std::to_string(c),
                              DataType::kString, true});
      }
      Table tbl("union_table" + std::to_string(table_counter++), schema);
      for (size_t r = 0; r < options.rows_per_table; ++r) {
        std::vector<Value> row;
        for (size_t c = 0; c < options.cols_per_table; ++c) {
          const auto& terms = lake.domains.at(
              "domain_g" + std::to_string(g) + "c" + std::to_string(c));
          row.push_back(Value(terms[rng.Below(terms.size())]));
        }
        // ignore: generated rows match the schema by construction.
        (void)tbl.AppendRow(std::move(row));
      }
      lake.tables.push_back(std::move(tbl));
      lake.group_of.push_back(g);
    }
  }
  return lake;
}

LogCorpus MakeLogCorpus(const LogCorpusOptions& options) {
  Rng rng(options.seed);
  LogCorpus corpus;

  // Template shapes: literal words with variable positions.
  struct Shape {
    std::vector<std::string> literals;  // "<*>" marks a variable slot
  };
  std::vector<Shape> shapes;
  static const char* kVerbs[] = {"started", "finished", "failed",
                                 "retried", "scheduled", "evicted"};
  static const char* kNouns[] = {"job", "task", "query", "compaction",
                                 "ingestion", "snapshot"};
  // Per-template tags must be digit-free (digit-bearing tokens are masked
  // as variables by extractors) and appear in TWO positions so any two
  // templates differ in at least two tokens — otherwise refinement would
  // legitimately merge them.
  auto letter_tag = [](std::string prefix, size_t i) {
    prefix.push_back(static_cast<char>('a' + i % 26));
    prefix.push_back(static_cast<char>('a' + (i / 26) % 26));
    return prefix;
  };
  for (size_t i = 0; i < options.num_templates; ++i) {
    Shape s;
    s.literals = {"INFO",
                  kNouns[i % 6],
                  letter_tag("task", i),
                  kVerbs[(i * 2 + 1) % 6],
                  "in",
                  "<*>",
                  "ms",
                  letter_tag("worker", i)};
    shapes.push_back(std::move(s));
    std::string pattern;
    for (size_t j = 0; j < shapes.back().literals.size(); ++j) {
      if (j > 0) pattern += " ";
      pattern += shapes.back().literals[j];
    }
    corpus.planted_patterns.push_back(pattern);
  }
  corpus.lines_per_pattern.assign(options.num_templates, 0);

  for (size_t line = 0; line < options.total_lines; ++line) {
    size_t t = rng.NextZipf(options.num_templates, options.popularity_skew);
    ++corpus.lines_per_pattern[t];
    std::string out;
    for (size_t j = 0; j < shapes[t].literals.size(); ++j) {
      if (j > 0) out += " ";
      if (shapes[t].literals[j] == "<*>") {
        out += std::to_string(rng.Below(100000));
      } else {
        out += shapes[t].literals[j];
      }
    }
    corpus.text += out;
    corpus.text += "\n";
  }
  // Order planted patterns by emitted frequency (descending) to match
  // extractor output ordering.
  std::vector<size_t> order(options.num_templates);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return corpus.lines_per_pattern[a] > corpus.lines_per_pattern[b];
  });
  std::vector<std::string> patterns;
  std::vector<size_t> lines;
  for (size_t i : order) {
    patterns.push_back(corpus.planted_patterns[i]);
    lines.push_back(corpus.lines_per_pattern[i]);
  }
  corpus.planted_patterns = std::move(patterns);
  corpus.lines_per_pattern = std::move(lines);
  return corpus;
}

DomainLake MakeDomainLake(const DomainLakeOptions& options) {
  Rng rng(options.seed);
  DomainLake lake;

  std::vector<std::string> domain_names;
  for (size_t d = 0; d < options.num_domains; ++d) {
    std::string name = "dom" + std::to_string(d);
    domain_names.push_back(name);
    std::vector<std::string> terms;
    for (size_t i = 0; i < options.terms_per_domain; ++i) {
      terms.push_back(name + "_term" + std::to_string(i));
    }
    lake.domains[name] = std::move(terms);
  }
  // Planted homographs: terms inserted into two domains.
  for (size_t h = 0; h < options.num_homographs && options.num_domains >= 2;
       ++h) {
    std::string term = "homograph" + std::to_string(h);
    lake.homographs.push_back(term);
    lake.domains[domain_names[h % options.num_domains]].push_back(term);
    lake.domains[domain_names[(h + 1) % options.num_domains]].push_back(term);
  }

  for (size_t t = 0; t < options.num_tables; ++t) {
    // Each table has 2 columns from (possibly) different domains.
    size_t d1 = rng.Below(options.num_domains);
    size_t d2 = rng.Below(options.num_domains);
    Schema schema;
    schema.AddField(Field{"col_" + domain_names[d1] + "_a",
                          DataType::kString, true});
    schema.AddField(Field{"col_" + domain_names[d2] + "_b",
                          DataType::kString, true});
    Table tbl("domain_table" + std::to_string(t), schema);
    const auto& terms1 = lake.domains.at(domain_names[d1]);
    const auto& terms2 = lake.domains.at(domain_names[d2]);
    for (size_t r = 0; r < options.rows_per_table; ++r) {
      // ignore: generated rows match the schema by construction.
      (void)tbl.AppendRow({Value(terms1[rng.Below(terms1.size())]),
                           Value(terms2[rng.Below(terms2.size())])});
    }
    lake.tables.push_back(std::move(tbl));
  }
  return lake;
}

DirtyTable MakeDirtyTable(const DirtyTableOptions& options) {
  Rng rng(options.seed);
  DirtyTable out;

  Schema schema;
  schema.AddField(Field{"id", DataType::kInt64, false});
  schema.AddField(Field{"city", DataType::kString, true});
  schema.AddField(Field{"zip", DataType::kString, true});
  schema.AddField(Field{"amount", DataType::kDouble, true});
  Table tbl("dirty", schema);

  // Ground truth: city i has zip "Z<i>".
  std::set<size_t> violation_rows;
  while (violation_rows.size() < options.num_violations) {
    violation_rows.insert(rng.Below(options.num_rows));
  }
  for (size_t r = 0; r < options.num_rows; ++r) {
    size_t city = rng.Below(options.num_cities);
    std::string zip = "Z" + std::to_string(city);
    if (violation_rows.count(r) > 0) {
      zip = "Z" + std::to_string((city + 1 + rng.Below(options.num_cities - 1)) %
                                 options.num_cities);
      out.violation_rows.push_back(r);
    }
    // ignore: generated rows match the schema by construction.
    (void)tbl.AppendRow({Value(static_cast<int64_t>(r)),
                         Value("city" + std::to_string(city)), Value(zip),
                         Value(rng.NextDouble() * 100.0)});
  }
  out.table = std::move(tbl);
  return out;
}

EvolvingCorpus MakeEvolvingCorpus(const EvolvingCorpusOptions& options) {
  Rng rng(options.seed);
  EvolvingCorpus corpus;
  int64_t ts = 0;

  auto emit = [&](int version) {
    for (size_t i = 0; i < options.docs_per_version; ++i) {
      json::Object doc;
      doc.Set("_ts", json::Value(ts++));
      doc.Set("id", json::Value(static_cast<int64_t>(rng.Below(100000))));
      if (version == 0) {
        doc.Set("name", json::Value(rng.NextWord(6)));
        doc.Set("age", json::Value(static_cast<int64_t>(rng.Below(90))));
      } else if (version == 1) {
        // v1: add "email".
        doc.Set("name", json::Value(rng.NextWord(6)));
        doc.Set("age", json::Value(static_cast<int64_t>(rng.Below(90))));
        doc.Set("email", json::Value(rng.NextWord(8) + "@mail"));
      } else {
        // v2: rename "name" -> "full_name", drop "age".
        doc.Set("full_name", json::Value(rng.NextWord(6)));
        doc.Set("email", json::Value(rng.NextWord(8) + "@mail"));
      }
      corpus.documents.emplace_back(std::move(doc));
    }
  };
  emit(0);
  emit(1);
  emit(2);
  corpus.planted_changes = {"add email", "rename name->full_name",
                            "remove age"};
  return corpus;
}

}  // namespace lakekit::workload
