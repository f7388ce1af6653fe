#include "core/data_lake.h"

namespace lakekit::core {

using storage::DataFormat;
using storage::StoreKind;

Result<DataLake> DataLake::Open(const std::string& root_dir) {
  DataLake lake;
  LAKEKIT_ASSIGN_OR_RETURN(storage::Polystore polystore,
                           storage::Polystore::Open(root_dir + "/objects"));
  lake.polystore_ =
      std::make_unique<storage::Polystore>(std::move(polystore));
  LAKEKIT_ASSIGN_OR_RETURN(catalog::Catalog catalog,
                           catalog::Catalog::Open(root_dir + "/catalog"));
  lake.catalog_ = std::make_unique<catalog::Catalog>(std::move(catalog));
  lake.federation_ =
      std::make_unique<query::FederatedEngine>(lake.polystore_.get());
  return lake;
}

Result<catalog::DatasetEntry> DataLake::CatalogDataset(
    std::string_view name, const ingest::FileProfile& profile,
    const IngestOptions& options) {
  catalog::DatasetEntry entry;
  entry.name = std::string(name);
  entry.path = profile.path;
  entry.format = std::string(storage::DataFormatName(profile.format));
  entry.size_bytes = profile.size_bytes;
  entry.num_records = profile.num_records;
  // Schema signature from column profiles.
  std::string schema;
  for (const ingest::ColumnProfile& c : profile.columns) {
    if (!schema.empty()) schema += ",";
    schema += c.name + ":" + std::string(table::DataTypeName(c.type));
  }
  entry.schema = schema;
  // Content metadata: keywords + per-column stats.
  json::Object content;
  json::Array keywords;
  for (const std::string& kw : profile.keywords) keywords.emplace_back(kw);
  content.Set("keywords", json::Value(std::move(keywords)));
  json::Array columns;
  for (const ingest::ColumnProfile& c : profile.columns) {
    json::Object col;
    col.Set("name", json::Value(c.name));
    col.Set("distinct", json::Value(static_cast<int64_t>(c.distinct_count)));
    col.Set("nulls", json::Value(static_cast<int64_t>(c.null_count)));
    col.Set("candidate_key", json::Value(c.is_candidate_key));
    columns.emplace_back(std::move(col));
  }
  content.Set("columns", json::Value(std::move(columns)));
  entry.content = json::Value(std::move(content));
  entry.description = options.description;
  entry.tags = options.tags;
  entry.owner = options.owner;
  entry.project = options.project;
  LAKEKIT_RETURN_IF_ERROR(catalog_->Register(entry));
  LAKEKIT_RETURN_IF_ERROR(provenance_.RecordDerivation(
      "ingest", /*inputs=*/{}, /*outputs=*/{std::string(name)},
      options.owner.empty() ? std::optional<std::string>{}
                            : std::optional<std::string>(options.owner)));
  return catalog_->Get(name);
}

Result<catalog::DatasetEntry> DataLake::IngestFile(
    std::string_view name, std::string_view filename,
    std::string_view content, const IngestOptions& options) {
  const std::string path = "landing/" + std::string(name) + "/" +
                           std::string(filename);
  LAKEKIT_ASSIGN_OR_RETURN(ingest::DecodedFile decoded,
                           ingest::Profiler::DecodeFile(filename, path,
                                                        content));
  // Store what the profiler decoded, routed per format.
  switch (storage::Polystore::RouteFormat(decoded.profile.format)) {
    case StoreKind::kRelational:
      decoded.table.set_name(std::string(name));
      LAKEKIT_RETURN_IF_ERROR(
          polystore_->StoreTable(name, std::move(decoded.table)));
      break;
    case StoreKind::kDocument:
      LAKEKIT_RETURN_IF_ERROR(
          polystore_->StoreDocuments(name, std::move(decoded.documents)));
      break;
    case StoreKind::kGraph:
    case StoreKind::kObject:
      LAKEKIT_RETURN_IF_ERROR(polystore_->StoreObject(name, path, content));
      break;
  }
  return CatalogDataset(name, decoded.profile, options);
}

Result<catalog::DatasetEntry> DataLake::IngestTable(
    table::Table t, const IngestOptions& options) {
  ingest::FileProfile profile;
  profile.name = t.name();
  profile.path = "memory/" + t.name();
  profile.format = DataFormat::kCsv;
  profile.num_records = t.num_rows();
  profile.size_bytes = 0;
  profile.columns = ingest::Profiler::ProfileTable(t);
  std::string name = t.name();
  LAKEKIT_RETURN_IF_ERROR(polystore_->StoreTable(name, std::move(t)));
  return CatalogDataset(name, profile, options);
}

Status DataLake::BuildDiscoveryIndexes() {
  std::vector<table::Table> tables;
  for (const std::string& name : polystore_->DatasetNames()) {
    Result<table::Table> t = polystore_->ReadAsTable(name);
    if (!t.ok()) continue;  // graph/binary datasets have no tabular view
    t->set_name(name);
    tables.push_back(std::move(*t));
  }
  corpus_ = std::make_unique<discovery::Corpus>();
  LAKEKIT_RETURN_IF_ERROR(corpus_->AddTables(std::move(tables)).status());
  aurum_ = std::make_unique<discovery::AurumFinder>(corpus_.get());
  LAKEKIT_RETURN_IF_ERROR(aurum_->Build());
  josie_ = std::make_unique<discovery::JosieFinder>(corpus_.get());
  josie_->Build();
  union_search_ = std::make_unique<discovery::UnionSearch>(corpus_.get());
  return Status::OK();
}

Result<std::vector<discovery::TableMatch>> DataLake::FindJoinableTables(
    std::string_view dataset, size_t k) const {
  if (!aurum_ || !aurum_->built()) {
    return Status::FailedPrecondition(
        "call BuildDiscoveryIndexes() before discovery queries");
  }
  LAKEKIT_ASSIGN_OR_RETURN(size_t table_idx, corpus_->TableIndex(dataset));
  return aurum_->TopKJoinableTables(table_idx, k);
}

Result<std::vector<discovery::ColumnMatch>> DataLake::FindJoinableColumns(
    std::string_view dataset, std::string_view column, size_t k) const {
  if (!josie_ || !josie_->built()) {
    return Status::FailedPrecondition(
        "call BuildDiscoveryIndexes() before discovery queries");
  }
  LAKEKIT_ASSIGN_OR_RETURN(discovery::ColumnId id,
                           corpus_->FindColumn(dataset, column));
  return josie_->TopKOverlapColumns(id, k);
}

Result<std::vector<discovery::UnionMatch>> DataLake::FindUnionableTables(
    std::string_view dataset, size_t k) const {
  if (!union_search_) {
    return Status::FailedPrecondition(
        "call BuildDiscoveryIndexes() before discovery queries");
  }
  LAKEKIT_ASSIGN_OR_RETURN(size_t table_idx, corpus_->TableIndex(dataset));
  return union_search_->TopKUnionableTables(table_idx, k);
}

Result<table::Table> DataLake::IntegrateDatasets(
    const std::vector<std::string>& datasets) {
  std::vector<table::Table> sources;
  for (const std::string& name : datasets) {
    LAKEKIT_ASSIGN_OR_RETURN(table::Table t, polystore_->ReadAsTable(name));
    t.set_name(name);
    sources.push_back(std::move(t));
  }
  LAKEKIT_ASSIGN_OR_RETURN(table::Table integrated,
                           integrate::IntegrateTables(sources));
  LAKEKIT_RETURN_IF_ERROR(provenance_.RecordDerivation(
      "integrate", datasets, {integrated.name()}));
  return integrated;
}

Result<std::vector<enrich::RelaxedFd>> DataLake::DiscoverDependencies(
    std::string_view dataset) const {
  LAKEKIT_ASSIGN_OR_RETURN(table::Table t, polystore_->ReadAsTable(dataset));
  return enrich::DiscoverRelaxedFds(t);
}

Result<std::vector<quality::DirtyTuple>> DataLake::FindDirtyTuples(
    std::string_view dataset) const {
  LAKEKIT_ASSIGN_OR_RETURN(table::Table t, polystore_->ReadAsTable(dataset));
  return quality::ConstraintChecker::InferAndRank(t);
}

Result<table::Table> DataLake::Query(std::string_view sql) {
  return federation_->Query(sql);
}

std::vector<catalog::DatasetEntry> DataLake::Search(
    std::string_view keyword) const {
  return catalog_->Search(keyword);
}

}  // namespace lakekit::core
