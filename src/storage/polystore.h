#ifndef LAKEKIT_STORAGE_POLYSTORE_H_
#define LAKEKIT_STORAGE_POLYSTORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/thread_annotations.h"
#include "json/value.h"
#include "storage/document_store.h"
#include "storage/fs.h"
#include "storage/graph_store.h"
#include "storage/object_store.h"
#include "table/table.h"

namespace lakekit::storage {

/// Which backend of the polystore holds a dataset.
enum class StoreKind { kRelational, kDocument, kGraph, kObject };

std::string_view StoreKindName(StoreKind kind);

/// The source format of an ingested dataset, used for routing.
enum class DataFormat { kCsv, kJson, kGraph, kLog, kBinary, kUnknown };

std::string_view DataFormatName(DataFormat format);

/// Tuning knobs for Polystore.
struct PolystoreOptions {
  /// Retry schedule for object-tier round trips (the store modeled as
  /// remote, hence the one with transient failures worth retrying).
  RetryOptions retry;
};

/// Where a dataset lives inside the polystore.
struct DatasetLocation {
  StoreKind store = StoreKind::kObject;
  /// Backend-specific locator: table name, collection name, or object key.
  std::string locator;
};

/// An in-memory relational store: named tables.
///
/// Stand-in for the MySQL/PostgreSQL member of polystore lakes (Sec. 4.3).
class RelationalStore {
 public:
  Status CreateTable(table::Table t);
  Status DropTable(std::string_view name);
  Result<const table::Table*> GetTable(std::string_view name) const;
  Status ReplaceTable(table::Table t);
  std::vector<std::string> TableNames() const;
  size_t num_tables() const { return tables_.size(); }

 private:
  std::map<std::string, table::Table, std::less<>> tables_;
};

/// Integrated access to heterogeneous stores — the polystore pattern of
/// Constance, GOODS and CoreDB (survey Sec. 4.3).
///
/// Datasets are registered under a lake-wide name with a routed location;
/// `RouteFormat` encodes the survey's default routing: relational data to
/// the relational store, documents to the document store, graphs to the
/// graph store, and everything else (logs, binaries) to raw object storage.
class Polystore {
 public:
  /// Creates a polystore whose object tier lives under `object_root` on
  /// `fs` (default: the production PosixFs). Object-tier operations issued
  /// through the polystore retry transient I/O errors per `options.retry`.
  static Result<Polystore> Open(const std::string& object_root,
                                PolystoreOptions options = {},
                                Fs* fs = Fs::Default());

  Polystore(Polystore&&) = default;
  Polystore& operator=(Polystore&&) = default;

  /// The survey's default format -> store routing.
  static StoreKind RouteFormat(DataFormat format);

  /// Registers dataset `name` as living at `location`. Fails on duplicates.
  Status RegisterDataset(std::string_view name, DatasetLocation location);

  Result<DatasetLocation> Lookup(std::string_view name) const;

  std::vector<std::string> DatasetNames() const;

  /// Convenience ingestion: stores the payload in the routed backend and
  /// registers the dataset. An already-registered `name` is refused
  /// (AlreadyExists) before any backend is touched.
  Status StoreTable(std::string_view name, table::Table t);
  Status StoreDocuments(std::string_view name, std::vector<json::Value> docs);
  Status StoreObject(std::string_view name, std::string_view key,
                     std::string_view data);

  /// Reads a registered dataset back as a table regardless of backend
  /// (documents are flattened; objects are parsed as CSV). Graph datasets
  /// are not convertible and return NotSupported. Object-tier reads retry
  /// transient I/O errors.
  Result<table::Table> ReadAsTable(std::string_view name) const;

  /// Persists the graph store as a JSON object under `key` in the object
  /// tier (with retry), so the otherwise in-memory graph tier survives
  /// process restarts alongside the KV and object tiers.
  Status SaveGraph(std::string_view key);

  /// Replaces the graph store with the snapshot previously saved under
  /// `key`. The current graph is untouched on any failure.
  Status LoadGraph(std::string_view key);

  /// Change counter for dataset `name`, the cache-coherence key of the scan
  /// cache (DESIGN.md §9.2): writes through the polystore's ingestion paths
  /// bump it, and object-backed datasets additionally fold in the object
  /// tier's per-key etag, so a `Put` issued directly against `objects()`
  /// also changes the generation. Callers that mutate a backend directly
  /// (e.g. `relational().ReplaceTable`) must call `BumpGeneration`.
  /// Process-local: generations are not persisted and restart from zero.
  uint64_t generation(std::string_view name) const;

  /// Explicitly advances `name`'s generation, retiring any cached scans of
  /// it. Safe on unregistered names (the registration itself then starts at
  /// a bumped generation).
  void BumpGeneration(std::string_view name);

  /// The policy object-tier round trips run under; tests inject a no-op
  /// sleeper here.
  RetryPolicy& retry() { return *retry_; }

  RelationalStore& relational() { return *relational_; }
  const RelationalStore& relational() const { return *relational_; }
  DocumentStore& documents() { return *documents_; }
  const DocumentStore& documents() const { return *documents_; }
  GraphStore& graph() { return *graph_; }
  const GraphStore& graph() const { return *graph_; }
  ObjectStore& objects() { return *objects_; }
  const ObjectStore& objects() const { return *objects_; }

 private:
  /// Heap-allocated (like the stores) so Polystore stays movable while the
  /// mutex is not.
  struct GenerationState {
    mutable Mutex mu;
    std::map<std::string, uint64_t, std::less<>> datasets
        LAKEKIT_GUARDED_BY(mu);
  };

  Polystore(ObjectStore objects, PolystoreOptions options);

  /// AlreadyExists when `name` is registered: the one duplicate check, run
  /// by RegisterDataset and by every Store* before it writes.
  Status RefuseRegistered(std::string_view name) const;

  std::unique_ptr<RelationalStore> relational_;
  std::unique_ptr<DocumentStore> documents_;
  std::unique_ptr<GraphStore> graph_;
  std::unique_ptr<ObjectStore> objects_;
  std::unique_ptr<RetryPolicy> retry_;
  std::unique_ptr<GenerationState> generations_;
  std::map<std::string, DatasetLocation, std::less<>> registry_;
};

}  // namespace lakekit::storage

#endif  // LAKEKIT_STORAGE_POLYSTORE_H_
