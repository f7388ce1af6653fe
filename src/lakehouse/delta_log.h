#ifndef LAKEKIT_LAKEHOUSE_DELTA_LOG_H_
#define LAKEKIT_LAKEHOUSE_DELTA_LOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/object_store.h"

namespace lakekit::lakehouse {

/// A data file added to the table.
struct AddFile {
  std::string path;
  uint64_t size = 0;
  bool operator==(const AddFile&) const = default;
};

/// A previously added file logically removed.
struct RemoveFile {
  std::string path;
};

/// Table-level metadata carried in the log.
struct TableMetadata {
  std::string table_name;
  /// Schema signature "col:type,..." (table::Schema::ToString format).
  std::string schema;
};

/// One atomic commit: optional metadata update plus file adds/removes,
/// tagged with the operation name for the history.
struct Commit {
  std::optional<TableMetadata> metadata;
  std::vector<AddFile> adds;
  std::vector<RemoveFile> removes;
  std::string operation;  // "CREATE", "APPEND", "OVERWRITE", "DELETE", ...

  /// An append-only commit can always rebase onto concurrent commits;
  /// anything that removes files or changes metadata conflicts with them.
  bool IsAppendOnly() const {
    return removes.empty() && !metadata.has_value();
  }
};

/// The reconstructed state of the table at one version.
struct Snapshot {
  int64_t version = -1;
  TableMetadata metadata;
  std::vector<AddFile> files;
};

/// A Delta-Lake-style transaction log over the object store (survey
/// Sec. 8.3): the table state is the fold of JSON commit files
/// `_delta_log/<v>.json`; commits are made atomic by the object store's
/// put-if-absent, giving optimistic concurrency — a losing writer re-reads,
/// checks for logical conflicts, and retries. Checkpoints collapse log
/// prefixes so snapshot reconstruction is O(commits since checkpoint)
/// instead of O(all commits).
class DeltaLog {
 public:
  DeltaLog(storage::ObjectStore* store, std::string table_prefix);

  /// Latest committed version; -1 when the log is empty.
  Result<int64_t> LatestVersion() const;

  /// State at `version` (default: latest). Uses the newest checkpoint at or
  /// before the requested version.
  Result<Snapshot> GetSnapshot(std::optional<int64_t> version = {}) const;

  /// Attempts to commit against the state read at `read_version`
  /// (use LatestVersion() before preparing the commit). Returns the
  /// committed version. Append-only commits rebase transparently past
  /// concurrent commits; conflicting commits return Aborted after
  /// `max_retries` attempts.
  Result<int64_t> TryCommit(const Commit& commit, int64_t read_version,
                            int max_retries = 10);

  /// Writes a checkpoint of the state at `version` and records it in
  /// `_last_checkpoint`.
  Status WriteCheckpoint(int64_t version);

  /// Operation names of commits 0..latest, in order.
  Result<std::vector<std::string>> History() const;

  const std::string& prefix() const { return prefix_; }

 private:
  std::string CommitKey(int64_t version) const;
  std::string CheckpointKey(int64_t version) const;
  Result<Commit> ReadCommit(int64_t version) const;
  Status ApplyCommit(const Commit& commit, Snapshot* snapshot) const;
  /// Newest checkpoint version <= `version`, or -1 (also when the
  /// `_last_checkpoint` pointer does not parse).
  int64_t FindCheckpoint(int64_t version) const;

  storage::ObjectStore* store_;
  std::string prefix_;
};

}  // namespace lakekit::lakehouse

#endif  // LAKEKIT_LAKEHOUSE_DELTA_LOG_H_
