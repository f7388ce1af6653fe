#ifndef LAKEKIT_CATALOG_CATALOG_H_
#define LAKEKIT_CATALOG_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "json/value.h"
#include "storage/kv_store.h"

namespace lakekit::catalog {

/// One dataset's catalog entry, organized in GOODS' six metadata categories
/// (survey Sec. 6.1.1): basic, content-based, provenance, user-supplied,
/// team/project, and temporal metadata.
struct DatasetEntry {
  std::string name;

  // --- basic metadata
  std::string path;
  std::string format;
  uint64_t size_bytes = 0;
  uint64_t num_records = 0;
  /// Compact schema signature ("id:int64,name:string").
  std::string schema;

  // --- content-based metadata (free-form: column profiles, keywords, ...)
  json::Value content;

  // --- provenance metadata
  std::vector<std::string> sources;
  std::string producing_job;

  // --- user-supplied metadata
  std::string description;
  std::vector<std::string> tags;

  // --- team / project metadata
  std::string owner;
  std::string project;

  // --- temporal metadata
  /// Logical timestamps from the catalog's monotonic clock.
  int64_t created_at = 0;
  int64_t updated_at = 0;
  uint64_t version = 0;

  json::Value ToJson() const;
  static Result<DatasetEntry> FromJson(const json::Value& v);
};

/// A persistent, versioned dataset catalog in the style of GOODS: entries
/// live in an ordered key-value store (lakekit's Bigtable stand-in); every
/// update keeps the previous version retrievable, enabling the
/// "cluster versions of the same dataset" organization GOODS performs.
///
/// The current entries are also held in memory, each parsed once (at `Open`
/// or when written) together with its lowercased search text, so lookups
/// and keyword search read memory — the catalog's in-memory data index.
/// The store stays the durable copy; `History` and `GetVersion` read it.
/// A stored entry that does not parse stays listed: `Get` and `Update`
/// return its parse error, the searches skip it, and `Remove` deletes it.
///
/// Each mutation commits as one `KvStore::Write` batch (one WAL append, one
/// fsync); the in-memory entries and clock change only once it has. A crash
/// mid-commit can persist a prefix of a batch. Register and Update write
/// `meta/clock`, `ds/<name>`, then `hist/<name>/<version>`: a prefix skips a
/// timestamp or leaves the new entry without its history record, and since
/// the clock comes first a reopened clock is never behind a stored
/// timestamp. Remove deletes `ds/<name>`, then the history records in
/// version order: a prefix can leave later versions in `History` and
/// `GetVersion` of an uncataloged name.
///
/// Thread safety: const calls may run concurrently with each other; a
/// mutating call (Register, Update, Remove) must not overlap any other call.
class Catalog {
 public:
  /// Opens a catalog persisted under `dir`; Corruption when its stored
  /// clock is not a number.
  static Result<Catalog> Open(const std::string& dir);

  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Registers a new dataset (version 1). AlreadyExists when present.
  Status Register(DatasetEntry entry);

  /// Updates an existing dataset: bumps the version, preserves created_at,
  /// archives the previous version.
  Status Update(DatasetEntry entry);

  /// Current entry for `name`.
  Result<DatasetEntry> Get(std::string_view name) const;

  /// A specific archived (or current) version.
  Result<DatasetEntry> GetVersion(std::string_view name,
                                  uint64_t version) const;

  /// All versions of a dataset, ascending.
  Result<std::vector<DatasetEntry>> History(std::string_view name) const;

  /// Removes a dataset and its history.
  Status Remove(std::string_view name);

  /// Names of all registered datasets, sorted.
  std::vector<std::string> ListDatasets() const;

  /// Entries whose name, description, schema, tags or content keywords
  /// (`content["keywords"]`) contain `keyword` (case-insensitive).
  std::vector<DatasetEntry> Search(std::string_view keyword) const;

  /// Entries carrying `tag`.
  std::vector<DatasetEntry> FindByTag(std::string_view tag) const;

  /// Entries owned by `owner`.
  std::vector<DatasetEntry> FindByOwner(std::string_view owner) const;

  size_t num_datasets() const { return current_.size(); }

 private:
  /// One current entry and the lowercased text `Search` matches against.
  struct Current {
    DatasetEntry entry;
    std::string search_text;
  };

  explicit Catalog(std::unique_ptr<storage::KvStore> store);

  /// Commits `entry`, stamped with the next timestamp (`clock_ + 1`) as its
  /// `updated_at`, in one batch: the clock, the current version
  /// (`ds/<name>`), then its history record. The in-memory entry and the
  /// clock follow once the batch is durable.
  Status Write(const DatasetEntry& entry);

  /// Parses a stored payload into its in-memory form.
  static Result<Current> Load(std::string_view payload);

  /// The current entries that parsed and that `keep` accepts, in name order.
  std::vector<DatasetEntry> Filter(
      const std::function<bool(const Current&)>& keep) const;

  std::unique_ptr<storage::KvStore> store_;
  int64_t clock_ = 0;
  /// By name; an entry that did not parse is held as its error.
  std::map<std::string, Result<Current>, std::less<>> current_;
};

}  // namespace lakekit::catalog

#endif  // LAKEKIT_CATALOG_CATALOG_H_
