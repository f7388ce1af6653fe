#include "harness/replay.h"

#include <optional>
#include <utility>
#include <vector>

#include "csv/csv.h"
#include "ingest/format_detect.h"
#include "json/parser.h"
#include "query/operators.h"
#include "query/sql.h"

namespace lake_e2e {

using lakekit::Result;
using lakekit::Status;
using lakekit::json::Value;
using lakekit::storage::DataFormat;
using lakekit::storage::StoreKind;
using lakekit::table::Table;

namespace ingest = lakekit::ingest;
namespace json = lakekit::json;
namespace query = lakekit::query;

lakekit::catalog::DatasetEntry MakeCatalogEntry(
    std::string_view name, const ingest::FileProfile& profile,
    const lakekit::core::IngestOptions& options) {
  lakekit::catalog::DatasetEntry entry;
  entry.name = std::string(name);
  entry.path = profile.path;
  entry.format = std::string(lakekit::storage::DataFormatName(profile.format));
  entry.size_bytes = profile.size_bytes;
  entry.num_records = profile.num_records;
  std::string schema;
  for (const ingest::ColumnProfile& c : profile.columns) {
    if (!schema.empty()) schema += ",";
    schema += c.name + ":" + std::string(lakekit::table::DataTypeName(c.type));
  }
  entry.schema = schema;
  json::Object content;
  json::Array keywords;
  for (const std::string& kw : profile.keywords) keywords.emplace_back(kw);
  content.Set("keywords", Value(std::move(keywords)));
  json::Array columns;
  for (const ingest::ColumnProfile& c : profile.columns) {
    json::Object col;
    col.Set("name", Value(c.name));
    col.Set("distinct", Value(static_cast<int64_t>(c.distinct_count)));
    col.Set("nulls", Value(static_cast<int64_t>(c.null_count)));
    col.Set("candidate_key", Value(c.is_candidate_key));
    columns.emplace_back(std::move(col));
  }
  content.Set("columns", Value(std::move(columns)));
  entry.content = Value(std::move(content));
  entry.description = options.description;
  entry.tags = options.tags;
  entry.owner = options.owner;
  entry.project = options.project;
  return entry;
}

std::string DiffProfiles(const ingest::FileProfile& a,
                         const ingest::FileProfile& b) {
  if (a.name != b.name || a.path != b.path || a.extension != b.extension ||
      a.size_bytes != b.size_bytes || a.format != b.format ||
      a.num_records != b.num_records || a.keywords != b.keywords) {
    return "profile header of '" + a.name + "' differs";
  }
  if (a.columns.size() != b.columns.size()) {
    return "profile of '" + a.name + "' has a different column count";
  }
  for (size_t i = 0; i < a.columns.size(); ++i) {
    const ingest::ColumnProfile& x = a.columns[i];
    const ingest::ColumnProfile& y = b.columns[i];
    if (x.name != y.name || x.type != y.type || x.row_count != y.row_count ||
        x.null_count != y.null_count || x.distinct_count != y.distinct_count ||
        x.min != y.min || x.max != y.max || x.mean != y.mean ||
        x.stddev != y.stddev || x.avg_length != y.avg_length ||
        x.top_values != y.top_values ||
        x.is_candidate_key != y.is_candidate_key) {
      return "profile of '" + a.name + "' column '" + x.name + "' differs";
    }
  }
  return "";
}

namespace {

/// Counts a decoded table against the raw bytes it came from (0: the input
/// was not raw bytes, e.g. documents already in the store).
void CountDecode(ThreadTrace* tt, const Table& t, size_t raw_bytes) {
  TraceCounters& c = tt->counters();
  c.rows_decoded += t.num_rows();
  if (raw_bytes > 0) {
    c.decoded_bytes += lakekit::table::EstimateTableBytes(t);
    c.decoded_raw_bytes += raw_bytes;
  }
}

Result<Value> ParseJson(ThreadTrace* tt, std::string_view text) {
  Span span(tt, "json.parse");
  if (tt != nullptr) tt->counters().json_bytes += text.size();
  return json::Parse(text);
}

Result<std::vector<Value>> ParseJsonLines(ThreadTrace* tt,
                                          std::string_view text) {
  Span span(tt, "json.parse");
  if (tt != nullptr) tt->counters().json_bytes += text.size();
  return json::ParseLines(text);
}

Result<Table> DecodeJson(ThreadTrace* tt, std::string name, const Value& doc,
                         size_t raw_bytes) {
  Span span(tt, "table.from_json");
  Result<Table> t = Table::FromJson(std::move(name), doc);
  if (tt != nullptr && t.ok()) {
    Probe probe(tt);
    CountDecode(tt, *t, raw_bytes);
  }
  return t;
}

}  // namespace

Result<Table> DecodeCsv(ThreadTrace* tt, std::string name,
                        std::string_view text) {
  Span span(tt, "table.from_csv");
  Result<Table> t = Table::FromCsv(std::move(name), text);
  if (tt != nullptr) {
    int64_t parse_ns = 0;
    {
      Probe probe(tt);
      const int64_t start = NowNs();
      Result<lakekit::csv::CsvData> parsed = lakekit::csv::Parse(text);
      parse_ns = NowNs() - start;
      // ignore: only the tokenizer's time is wanted; FromCsv reported any
      // error above.
      (void)parsed;
      if (t.ok()) CountDecode(tt, *t, text.size());
    }
    tt->AddSynthetic("csv.parse", parse_ns);
    tt->counters().csv_bytes += text.size();
  }
  return t;
}

Result<ingest::FileProfile> ProfileFile(ThreadTrace* tt, std::string_view name,
                                        std::string_view path,
                                        std::string_view content) {
  Span span(tt, "ingest.profile_file");
  ingest::FileProfile profile;
  profile.name = std::string(name);
  profile.path = std::string(path);
  profile.size_bytes = content.size();
  const size_t dot = name.rfind('.');
  profile.extension =
      dot == std::string_view::npos ? "" : std::string(name.substr(dot + 1));
  {
    Span detect(tt, "ingest.detect");
    profile.format = ingest::DetectFormat(name, content);
  }
  switch (profile.format) {
    case DataFormat::kCsv: {
      LAKEKIT_ASSIGN_OR_RETURN(Table t, DecodeCsv(tt, profile.name, content));
      profile.num_records = t.num_rows();
      profile.columns = ingest::Profiler::ProfileTable(t);
      break;
    }
    case DataFormat::kJson: {
      json::Array docs;
      Result<Value> whole = ParseJson(tt, content);
      if (whole.ok() && whole->is_array()) {
        docs = whole->as_array();
      } else if (whole.ok() && whole->is_object()) {
        docs.push_back(std::move(whole).value());
      } else {
        LAKEKIT_ASSIGN_OR_RETURN(auto lines, ParseJsonLines(tt, content));
        docs = std::move(lines);
      }
      profile.num_records = docs.size();
      LAKEKIT_ASSIGN_OR_RETURN(
          Table t, DecodeJson(tt, profile.name, Value(std::move(docs)),
                              content.size()));
      profile.columns = ingest::Profiler::ProfileTable(t);
      break;
    }
    case DataFormat::kLog:
    case DataFormat::kUnknown: {
      size_t lines = 0;
      for (char c : content) {
        if (c == '\n') ++lines;
      }
      profile.num_records = lines;
      profile.keywords = ingest::Profiler::ExtractKeywords(content);
      break;
    }
    case DataFormat::kBinary:
    case DataFormat::kGraph:
      break;
  }
  return profile;
}

Result<Table> ReadAsTable(ThreadTrace* tt,
                          const lakekit::storage::Polystore& polystore,
                          std::string_view name) {
  LAKEKIT_ASSIGN_OR_RETURN(lakekit::storage::DatasetLocation loc,
                           polystore.Lookup(name));
  switch (loc.store) {
    case StoreKind::kRelational: {
      Span span(tt, "storage.read_relational");
      LAKEKIT_ASSIGN_OR_RETURN(const Table* t,
                               polystore.relational().GetTable(loc.locator));
      return *t;
    }
    case StoreKind::kDocument: {
      Span span(tt, "storage.read_document");
      json::Array docs;
      for (Value& d : polystore.documents().All(loc.locator)) {
        d.as_object().Erase("_id");
        docs.push_back(std::move(d));
      }
      return DecodeJson(tt, std::string(name), Value(std::move(docs)), 0);
    }
    case StoreKind::kObject: {
      // Polystore wraps the Get in its retry policy; no fault is injected
      // here, so the one attempt is the whole call.
      Span span(tt, "storage.read_object");
      std::string data;
      {
        Span get(tt, "storage.object_get");
        LAKEKIT_ASSIGN_OR_RETURN(data, polystore.objects().Get(loc.locator));
      }
      if (tt != nullptr) tt->counters().object_get_bytes += data.size();
      return DecodeCsv(tt, std::string(name), data);
    }
    case StoreKind::kGraph:
      return Status::NotSupported("graph dataset '" + std::string(name) +
                                  "' has no tabular representation");
  }
  return Status::Internal("unreachable");
}

Result<lakekit::catalog::DatasetEntry> IngestFile(
    ThreadTrace* tt, lakekit::core::DataLake* lake, std::string_view name,
    std::string_view filename, std::string_view content,
    const lakekit::core::IngestOptions& options) {
  if (tt != nullptr) tt->BeginRequest();
  Span root(tt, "e2e.ingest_file");
  const std::string path =
      "landing/" + std::string(name) + "/" + std::string(filename);
  LAKEKIT_ASSIGN_OR_RETURN(ingest::FileProfile profile,
                           ProfileFile(tt, filename, path, content));
  lakekit::storage::Polystore& polystore = lake->polystore();
  switch (lakekit::storage::Polystore::RouteFormat(profile.format)) {
    case StoreKind::kRelational: {
      LAKEKIT_ASSIGN_OR_RETURN(Table t,
                               DecodeCsv(tt, std::string(name), content));
      Span span(tt, "storage.store_table");
      LAKEKIT_RETURN_IF_ERROR(polystore.StoreTable(name, std::move(t)));
      break;
    }
    case StoreKind::kDocument: {
      std::vector<Value> docs;
      Result<Value> whole = ParseJson(tt, content);
      if (whole.ok() && whole->is_array()) {
        for (Value& d : whole->as_array()) docs.push_back(std::move(d));
      } else if (whole.ok() && whole->is_object()) {
        docs.push_back(std::move(whole).value());
      } else {
        LAKEKIT_ASSIGN_OR_RETURN(docs, ParseJsonLines(tt, content));
      }
      Span span(tt, "storage.store_documents");
      LAKEKIT_RETURN_IF_ERROR(polystore.StoreDocuments(name, std::move(docs)));
      break;
    }
    case StoreKind::kGraph:
    case StoreKind::kObject: {
      Span span(tt, "storage.object_put");
      LAKEKIT_RETURN_IF_ERROR(polystore.StoreObject(name, path, content));
      break;
    }
  }
  lakekit::catalog::DatasetEntry entry =
      MakeCatalogEntry(name, profile, options);
  {
    Span span(tt, "catalog.register");
    LAKEKIT_RETURN_IF_ERROR(lake->catalog().Register(entry));
  }
  {
    Span span(tt, "provenance.record");
    LAKEKIT_RETURN_IF_ERROR(lake->provenance().RecordDerivation(
        "ingest", /*inputs=*/{}, /*outputs=*/{std::string(name)},
        options.owner.empty() ? std::optional<std::string>{}
                              : std::optional<std::string>(options.owner)));
  }
  Span span(tt, "catalog.get");
  return lake->catalog().Get(name);
}

Status BuildDiscoveryIndexes(ThreadTrace* tt, lakekit::core::DataLake* lake,
                             DiscoveryIndexes* out) {
  namespace discovery = lakekit::discovery;
  if (tt != nullptr) tt->BeginRequest();
  Span root(tt, "e2e.build_indexes");
  out->corpus = std::make_unique<discovery::Corpus>();
  const lakekit::storage::Polystore& polystore = lake->polystore();
  for (const std::string& name : polystore.DatasetNames()) {
    Result<Table> t = ReadAsTable(tt, polystore, name);
    if (!t.ok()) continue;  // graph/binary datasets have no tabular view
    t->set_name(name);
    Span span(tt, "discovery.corpus_add");
    LAKEKIT_RETURN_IF_ERROR(out->corpus->AddTable(std::move(*t)).status());
  }
  out->aurum = std::make_unique<discovery::AurumFinder>(out->corpus.get());
  {
    Span span(tt, "discovery.aurum_build");
    LAKEKIT_RETURN_IF_ERROR(out->aurum->Build());
  }
  out->josie = std::make_unique<discovery::JosieFinder>(out->corpus.get());
  {
    Span span(tt, "discovery.josie_build");
    out->josie->Build();
  }
  Span span(tt, "discovery.union_build");
  out->union_search =
      std::make_unique<discovery::UnionSearch>(out->corpus.get());
  return Status::OK();
}

namespace {

/// FederatedEngine's CoveredBy: every column of `expr` is in `schema`.
bool CoveredBy(const query::Expr& expr, const lakekit::table::Schema& schema) {
  std::vector<std::string> columns;
  expr.CollectColumns(&columns);
  for (const std::string& c : columns) {
    if (!schema.HasField(c)) return false;
  }
  return !columns.empty();
}

Result<query::ScannedSource> ReadSource(ThreadTrace* tt,
                                        const EngineParts& parts,
                                        const std::string& dataset,
                                        lakekit::BudgetAccount* account) {
  uint64_t generation = 0;
  if (parts.cache != nullptr) {
    generation = parts.polystore->generation(dataset);
    query::TableCache::Entry hit;
    {
      Span span(tt, "query.cache_find");
      hit = parts.cache->Find(dataset, generation);
    }
    if (hit) return query::ScannedSource{Table(), std::move(hit)};
  }
  LAKEKIT_ASSIGN_OR_RETURN(Table t,
                           ReadAsTable(tt, *parts.polystore, dataset));
  if (parts.cache != nullptr) {
    query::TableCache::Entry entry;
    {
      Span span(tt, "query.cache_admit");
      entry = parts.cache->Put(dataset, generation, &t);
    }
    if (entry) return query::ScannedSource{Table(), std::move(entry)};
  }
  if (account->attached()) {
    LAKEKIT_RETURN_IF_ERROR(
        account->TryReserve(lakekit::table::EstimateTableBytes(t)));
  }
  return query::ScannedSource{std::move(t), query::TableCache::Entry()};
}

Result<Table> FilterScanned(ThreadTrace* tt, query::ScannedSource src,
                            const query::Expr* predicate,
                            query::FederationStats* stats,
                            const query::ExecOptions& exec) {
  stats->rows_scanned += src.table().num_rows();
  Table t;
  if (predicate != nullptr) {
    query::FilterExecStats fstats;
    {
      Span span(tt, "query.filter");
      LAKEKIT_ASSIGN_OR_RETURN(
          t, query::Filter(src.table(), *predicate, src.zones(), exec, &fstats));
    }
    if (tt != nullptr) {
      tt->counters().morsels_total += fstats.morsels_total;
      tt->counters().morsels_pruned += fstats.morsels_pruned;
    }
  } else {
    Span span(tt, "query.materialize");
    t = std::move(src).TakeOrCopy();
  }
  stats->rows_shipped += t.num_rows();
  return t;
}

Result<Table> QueryBody(ThreadTrace* tt, const EngineParts& parts,
                        std::string_view sql, const query::ExecOptions& exec,
                        lakekit::BudgetAccount* account,
                        query::FederationStats* stats) {
  query::SelectStatement stmt;
  {
    Span span(tt, "query.parse");
    LAKEKIT_ASSIGN_OR_RETURN(stmt, query::ParseSql(sql));
  }
  std::vector<query::ExprPtr> conjuncts;
  query::SplitConjuncts(stmt.where, &conjuncts);

  LAKEKIT_ASSIGN_OR_RETURN(query::ScannedSource from_data,
                           ReadSource(tt, parts, stmt.from_table, account));
  const lakekit::table::Schema from_schema = from_data.table().schema();
  query::ScannedSource join_data;
  lakekit::table::Schema join_schema;
  if (stmt.join_table) {
    LAKEKIT_ASSIGN_OR_RETURN(join_data,
                             ReadSource(tt, parts, *stmt.join_table, account));
    join_schema = join_data.table().schema();
  }
  std::vector<query::ExprPtr> from_push;
  std::vector<query::ExprPtr> join_push;
  std::vector<query::ExprPtr> residual;
  for (const query::ExprPtr& c : conjuncts) {
    if (CoveredBy(*c, from_schema)) {
      from_push.push_back(c);
    } else if (stmt.join_table && CoveredBy(*c, join_schema)) {
      join_push.push_back(c);
    } else {
      residual.push_back(c);
    }
  }

  const query::ExprPtr from_pred = query::CombineConjuncts(from_push);
  LAKEKIT_ASSIGN_OR_RETURN(
      Table current, FilterScanned(tt, std::move(from_data), from_pred.get(),
                                   stats, exec));
  if (stmt.join_table) {
    const query::ExprPtr join_pred = query::CombineConjuncts(join_push);
    LAKEKIT_ASSIGN_OR_RETURN(
        Table right, FilterScanned(tt, std::move(join_data), join_pred.get(),
                                   stats, exec));
    Span span(tt, "query.join");
    LAKEKIT_ASSIGN_OR_RETURN(
        current, query::HashJoin(current, right, stmt.join_left_col,
                                 stmt.join_right_col, query::JoinType::kInner,
                                 exec));
  }
  const query::ExprPtr residual_pred = query::CombineConjuncts(residual);
  if (residual_pred) {
    Span span(tt, "query.filter");
    LAKEKIT_ASSIGN_OR_RETURN(current,
                             query::Filter(current, *residual_pred, exec));
  }

  // The rest is ExecuteSelect over a resolver that hands back a copy of
  // `current` (which stays alive until the query returns).
  Table tail;
  {
    Span span(tt, "query.materialize");
    tail = current;
  }
  bool has_agg = false;
  for (const query::SelectItem& i : stmt.items) has_agg = has_agg || i.agg;
  if (has_agg || !stmt.group_by.empty()) {
    std::vector<query::AggSpec> aggs;
    for (const query::SelectItem& i : stmt.items) {
      if (i.agg) aggs.push_back(query::AggSpec{*i.agg, i.column, i.alias});
    }
    {
      Span span(tt, "query.aggregate");
      LAKEKIT_ASSIGN_OR_RETURN(
          tail, query::Aggregate(tail, stmt.group_by, aggs, exec));
    }
    if (stmt.order_by) {
      Span span(tt, "query.sort");
      LAKEKIT_ASSIGN_OR_RETURN(
          tail, query::Sort(tail, *stmt.order_by, stmt.order_ascending, exec));
    }
  } else {
    if (stmt.order_by) {
      Span span(tt, "query.sort");
      LAKEKIT_ASSIGN_OR_RETURN(
          tail, query::Sort(tail, *stmt.order_by, stmt.order_ascending, exec));
    }
    if (!stmt.select_all) {
      std::vector<std::string> columns;
      for (const query::SelectItem& i : stmt.items) columns.push_back(i.column);
      Span span(tt, "query.materialize");
      LAKEKIT_ASSIGN_OR_RETURN(tail, query::Project(tail, columns));
    }
  }
  if (stmt.limit) {
    Span span(tt, "query.materialize");
    tail = query::Limit(tail, *stmt.limit);
  }
  return tail;
}

}  // namespace

Result<Table> Query(ThreadTrace* tt, const EngineParts& parts,
                    std::string_view sql, query::FederationStats* stats) {
  if (tt != nullptr) tt->BeginRequest();
  Span root(tt, "e2e.query");
  query::AdmissionController::Ticket ticket;
  if (parts.admission != nullptr) {
    Span span(tt, "query.admission");
    LAKEKIT_ASSIGN_OR_RETURN(ticket, parts.admission->Admit());
  }
  lakekit::BudgetAccount account(parts.budget);
  query::ExecOptions exec;
  exec.pool = parts.pool;
  exec.budget = &account;
  Result<Table> r = QueryBody(tt, parts, sql, exec, &account, stats);
  ticket.Finish(r.ok());
  return r;
}

}  // namespace lake_e2e
