#include "storage/polystore.h"

#include "json/parser.h"
#include "json/writer.h"

namespace lakekit::storage {

std::string_view StoreKindName(StoreKind kind) {
  switch (kind) {
    case StoreKind::kRelational:
      return "relational";
    case StoreKind::kDocument:
      return "document";
    case StoreKind::kGraph:
      return "graph";
    case StoreKind::kObject:
      return "object";
  }
  return "unknown";
}

std::string_view DataFormatName(DataFormat format) {
  switch (format) {
    case DataFormat::kCsv:
      return "csv";
    case DataFormat::kJson:
      return "json";
    case DataFormat::kGraph:
      return "graph";
    case DataFormat::kLog:
      return "log";
    case DataFormat::kBinary:
      return "binary";
    case DataFormat::kUnknown:
      return "unknown";
  }
  return "unknown";
}

Status RelationalStore::CreateTable(table::Table t) {
  auto [it, inserted] = tables_.try_emplace(t.name(), std::move(t));
  if (!inserted) {
    return Status::AlreadyExists("table '" + it->first + "' already exists");
  }
  return Status::OK();
}

Status RelationalStore::DropTable(std::string_view name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + std::string(name) + "'");
  }
  tables_.erase(it);
  return Status::OK();
}

Result<const table::Table*> RelationalStore::GetTable(
    std::string_view name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + std::string(name) + "'");
  }
  return &it->second;
}

Status RelationalStore::ReplaceTable(table::Table t) {
  tables_.insert_or_assign(t.name(), std::move(t));
  return Status::OK();
}

std::vector<std::string> RelationalStore::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) out.push_back(name);
  return out;
}

Polystore::Polystore(ObjectStore objects, PolystoreOptions options)
    : relational_(std::make_unique<RelationalStore>()),
      documents_(std::make_unique<DocumentStore>()),
      graph_(std::make_unique<GraphStore>()),
      objects_(std::make_unique<ObjectStore>(std::move(objects))),
      retry_(std::make_unique<RetryPolicy>(options.retry)),
      generations_(std::make_unique<GenerationState>()) {}

Result<Polystore> Polystore::Open(const std::string& object_root,
                                  PolystoreOptions options, Fs* fs) {
  LAKEKIT_ASSIGN_OR_RETURN(ObjectStore objects,
                           ObjectStore::Open(object_root, fs));
  return Polystore(std::move(objects), std::move(options));
}

StoreKind Polystore::RouteFormat(DataFormat format) {
  switch (format) {
    case DataFormat::kCsv:
      return StoreKind::kRelational;
    case DataFormat::kJson:
      return StoreKind::kDocument;
    case DataFormat::kGraph:
      return StoreKind::kGraph;
    case DataFormat::kLog:
    case DataFormat::kBinary:
    case DataFormat::kUnknown:
      return StoreKind::kObject;
  }
  return StoreKind::kObject;
}

Status Polystore::RefuseRegistered(std::string_view name) const {
  if (registry_.find(name) != registry_.end()) {
    return Status::AlreadyExists("dataset '" + std::string(name) +
                                 "' already registered");
  }
  return Status::OK();
}

Status Polystore::RegisterDataset(std::string_view name,
                                  DatasetLocation location) {
  LAKEKIT_RETURN_IF_ERROR(RefuseRegistered(name));
  registry_.emplace(std::string(name), std::move(location));
  return Status::OK();
}

Result<DatasetLocation> Polystore::Lookup(std::string_view name) const {
  auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("dataset '" + std::string(name) +
                            "' not registered");
  }
  return it->second;
}

std::vector<std::string> Polystore::DatasetNames() const {
  std::vector<std::string> out;
  out.reserve(registry_.size());
  for (const auto& [name, loc] : registry_) out.push_back(name);
  return out;
}

uint64_t Polystore::generation(std::string_view name) const {
  uint64_t base = 0;
  {
    MutexLock lock(generations_->mu);
    auto it = generations_->datasets.find(name);
    if (it != generations_->datasets.end()) base = it->second;
  }
  // Object-backed datasets add the object tier's own etag, so writes
  // issued directly against objects() (bypassing the polystore) still
  // retire cached scans. Neither counter ever decreases and every write
  // raises one of them, so the sum rises with each write and a dataset
  // never sees one generation twice. A hash of the pair would not do:
  // HashCombine(63, 58) == HashCombine(64, 60).
  auto it = registry_.find(name);
  if (it != registry_.end() && it->second.store == StoreKind::kObject) {
    return base + objects_->etag(it->second.locator);
  }
  return base;
}

void Polystore::BumpGeneration(std::string_view name) {
  MutexLock lock(generations_->mu);
  auto it = generations_->datasets.find(name);
  if (it == generations_->datasets.end()) {
    generations_->datasets.emplace(std::string(name), 1);
  } else {
    ++it->second;
  }
}

Status Polystore::StoreTable(std::string_view name, table::Table t) {
  LAKEKIT_RETURN_IF_ERROR(RefuseRegistered(name));
  std::string locator = t.name();
  LAKEKIT_RETURN_IF_ERROR(relational_->CreateTable(std::move(t)));
  LAKEKIT_RETURN_IF_ERROR(
      RegisterDataset(name, {StoreKind::kRelational, locator}));
  BumpGeneration(name);
  return Status::OK();
}

Status Polystore::StoreDocuments(std::string_view name,
                                 std::vector<json::Value> docs) {
  LAKEKIT_RETURN_IF_ERROR(RefuseRegistered(name));
  std::string collection(name);
  for (json::Value& doc : docs) {
    LAKEKIT_RETURN_IF_ERROR(documents_->Insert(collection, std::move(doc)).status());
  }
  LAKEKIT_RETURN_IF_ERROR(
      RegisterDataset(name, {StoreKind::kDocument, collection}));
  BumpGeneration(name);
  return Status::OK();
}

Status Polystore::StoreObject(std::string_view name, std::string_view key,
                              std::string_view data) {
  LAKEKIT_RETURN_IF_ERROR(RefuseRegistered(name));
  LAKEKIT_RETURN_IF_ERROR(
      retry_->Run([&] { return objects_->Put(key, data); }));
  return RegisterDataset(name, {StoreKind::kObject, std::string(key)});
}

Status Polystore::SaveGraph(std::string_view key) {
  std::string snapshot = json::Write(graph_->ExportJson());
  return retry_->Run([&] { return objects_->Put(key, snapshot); });
}

Status Polystore::LoadGraph(std::string_view key) {
  LAKEKIT_ASSIGN_OR_RETURN(
      std::string data,
      retry_->RunResult([&] { return objects_->Get(key); }));
  LAKEKIT_ASSIGN_OR_RETURN(json::Value value, json::Parse(data));
  LAKEKIT_ASSIGN_OR_RETURN(GraphStore graph, GraphStore::ImportJson(value));
  *graph_ = std::move(graph);
  return Status::OK();
}

Result<table::Table> Polystore::ReadAsTable(std::string_view name) const {
  LAKEKIT_ASSIGN_OR_RETURN(DatasetLocation loc, Lookup(name));
  switch (loc.store) {
    case StoreKind::kRelational: {
      LAKEKIT_ASSIGN_OR_RETURN(const table::Table* t,
                               relational_->GetTable(loc.locator));
      return *t;
    }
    case StoreKind::kDocument: {
      json::Array docs;
      for (json::Value& d : documents_->All(loc.locator)) {
        d.as_object().Erase("_id");
        docs.push_back(std::move(d));
      }
      return table::Table::FromJson(std::string(name),
                                    json::Value(std::move(docs)));
    }
    case StoreKind::kObject: {
      LAKEKIT_ASSIGN_OR_RETURN(
          std::string data,
          retry_->RunResult([&] { return objects_->Get(loc.locator); }));
      return table::Table::FromCsv(std::string(name), data);
    }
    case StoreKind::kGraph:
      return Status::NotSupported(
          "graph dataset '" + std::string(name) +
          "' has no tabular representation");
  }
  return Status::Internal("unreachable");
}

}  // namespace lakekit::storage
