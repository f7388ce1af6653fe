#include "lakehouse/delta_log.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "json/parser.h"
#include "json/writer.h"

namespace lakekit::lakehouse {

namespace {

std::string VersionString(int64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020lld",
                static_cast<long long>(version));
  return buf;
}

json::Value CommitToJson(const Commit& commit) {
  // NDJSON: one action per line, Delta-style. Here we emit a single JSON
  // document with an "actions" array for byte-stable parsing simplicity.
  json::Object root;
  json::Object info;
  info.Set("operation", json::Value(commit.operation));
  root.Set("commitInfo", json::Value(std::move(info)));
  if (commit.metadata) {
    json::Object meta;
    meta.Set("name", json::Value(commit.metadata->table_name));
    meta.Set("schema", json::Value(commit.metadata->schema));
    root.Set("metaData", json::Value(std::move(meta)));
  }
  json::Array adds;
  for (const AddFile& f : commit.adds) {
    json::Object add;
    add.Set("path", json::Value(f.path));
    add.Set("size", json::Value(static_cast<int64_t>(f.size)));
    adds.emplace_back(std::move(add));
  }
  root.Set("add", json::Value(std::move(adds)));
  json::Array removes;
  for (const RemoveFile& f : commit.removes) {
    json::Object remove;
    remove.Set("path", json::Value(f.path));
    removes.emplace_back(std::move(remove));
  }
  root.Set("remove", json::Value(std::move(removes)));
  return json::Value(std::move(root));
}

Result<Commit> CommitFromJson(const json::Value& v) {
  if (!v.is_object()) return Status::Corruption("commit is not an object");
  Commit commit;
  if (const json::Value* info = v.Get("commitInfo")) {
    commit.operation = info->GetString("operation");
  }
  if (const json::Value* meta = v.Get("metaData")) {
    TableMetadata metadata;
    metadata.table_name = meta->GetString("name");
    metadata.schema = meta->GetString("schema");
    commit.metadata = std::move(metadata);
  }
  if (const json::Value* adds = v.Get("add"); adds != nullptr && adds->is_array()) {
    for (const json::Value& a : adds->as_array()) {
      commit.adds.push_back(AddFile{
          a.GetString("path"), static_cast<uint64_t>(a.GetInt("size"))});
    }
  }
  if (const json::Value* removes = v.Get("remove");
      removes != nullptr && removes->is_array()) {
    for (const json::Value& r : removes->as_array()) {
      commit.removes.push_back(RemoveFile{r.GetString("path")});
    }
  }
  return commit;
}

}  // namespace

DeltaLog::DeltaLog(storage::ObjectStore* store, std::string table_prefix)
    : store_(store), prefix_(std::move(table_prefix)) {}

std::string DeltaLog::CommitKey(int64_t version) const {
  return prefix_ + "/_delta_log/" + VersionString(version) + ".json";
}

std::string DeltaLog::CheckpointKey(int64_t version) const {
  return prefix_ + "/_delta_log/" + VersionString(version) +
         ".checkpoint.json";
}

Result<int64_t> DeltaLog::LatestVersion() const {
  // Fast path via _last_checkpoint, then linear probe forward.
  int64_t version = FindCheckpoint(INT64_MAX);
  // Probe forward from max(checkpoint, 0).
  int64_t candidate = std::max<int64_t>(version, -1);
  while (store_->Exists(CommitKey(candidate + 1))) {
    ++candidate;
  }
  if (candidate < 0) {
    // Maybe version 0 doesn't exist at all.
    return store_->Exists(CommitKey(0)) ? Result<int64_t>(0)
                                        : Result<int64_t>(-1);
  }
  return candidate;
}

Result<Commit> DeltaLog::ReadCommit(int64_t version) const {
  LAKEKIT_ASSIGN_OR_RETURN(std::string payload,
                           store_->Get(CommitKey(version)));
  LAKEKIT_ASSIGN_OR_RETURN(json::Value v, json::Parse(payload));
  return CommitFromJson(v);
}

Status DeltaLog::ApplyCommit(const Commit& commit, Snapshot* snapshot) const {
  if (commit.metadata) snapshot->metadata = *commit.metadata;
  for (const RemoveFile& r : commit.removes) {
    snapshot->files.erase(
        std::remove_if(snapshot->files.begin(), snapshot->files.end(),
                       [&](const AddFile& f) { return f.path == r.path; }),
        snapshot->files.end());
  }
  for (const AddFile& a : commit.adds) {
    snapshot->files.push_back(a);
  }
  return Status::OK();
}

int64_t DeltaLog::FindCheckpoint(int64_t version) const {
  Result<std::string> last =
      store_->Get(prefix_ + "/_delta_log/_last_checkpoint");
  if (!last.ok()) return -1;
  // A pointer that does not parse, or names no checkpoint object, counts as
  // absent: commits are never deleted, so replaying all of them is exact.
  int64_t checkpoint_version = 0;
  const char* end = last->data() + last->size();
  auto [ptr, ec] = std::from_chars(last->data(), end, checkpoint_version);
  if (ec != std::errc() || ptr != end ||
      !store_->Exists(CheckpointKey(checkpoint_version))) {
    return -1;
  }
  if (checkpoint_version > version) {
    // Requested an older state: scan backwards for an older checkpoint (we
    // only track the latest pointer; fall back to full replay).
    for (int64_t v = version; v >= 0; --v) {
      if (store_->Exists(CheckpointKey(v))) return v;
    }
    return -1;
  }
  return checkpoint_version;
}

Result<Snapshot> DeltaLog::GetSnapshot(std::optional<int64_t> version) const {
  int64_t target;
  if (version) {
    target = *version;
    if (!store_->Exists(CommitKey(target))) {
      return Status::NotFound("no version " + std::to_string(target));
    }
  } else {
    LAKEKIT_ASSIGN_OR_RETURN(target, LatestVersion());
    if (target < 0) {
      return Status::NotFound("empty table log at '" + prefix_ + "'");
    }
  }

  Snapshot snapshot;
  int64_t start = 0;
  int64_t checkpoint = FindCheckpoint(target);
  if (checkpoint >= 0) {
    LAKEKIT_ASSIGN_OR_RETURN(std::string payload,
                             store_->Get(CheckpointKey(checkpoint)));
    LAKEKIT_ASSIGN_OR_RETURN(json::Value v, json::Parse(payload));
    LAKEKIT_ASSIGN_OR_RETURN(Commit state, CommitFromJson(v));
    LAKEKIT_RETURN_IF_ERROR(ApplyCommit(state, &snapshot));
    start = checkpoint + 1;
  }
  for (int64_t v = start; v <= target; ++v) {
    LAKEKIT_ASSIGN_OR_RETURN(Commit commit, ReadCommit(v));
    LAKEKIT_RETURN_IF_ERROR(ApplyCommit(commit, &snapshot));
  }
  snapshot.version = target;
  return snapshot;
}

Result<int64_t> DeltaLog::TryCommit(const Commit& commit, int64_t read_version,
                                    int max_retries) {
  std::string payload = json::Write(CommitToJson(commit));
  int64_t attempt_version = read_version + 1;
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    Status s = store_->PutIfAbsent(CommitKey(attempt_version), payload);
    if (s.ok()) return attempt_version;
    if (!s.IsAlreadyExists()) return s;
    // Lost the race. Append-only commits rebase onto the new tip; anything
    // else is a logical conflict with the concurrent writer.
    if (!commit.IsAppendOnly()) {
      return Status::Aborted(
          "concurrent commit at version " + std::to_string(attempt_version) +
          " conflicts with non-append operation '" + commit.operation + "'");
    }
    LAKEKIT_ASSIGN_OR_RETURN(int64_t latest, LatestVersion());
    attempt_version = latest + 1;
  }
  return Status::Aborted("commit retries exhausted");
}

Status DeltaLog::WriteCheckpoint(int64_t version) {
  LAKEKIT_ASSIGN_OR_RETURN(Snapshot snapshot, GetSnapshot(version));
  Commit state;
  state.metadata = snapshot.metadata;
  state.adds = snapshot.files;
  state.operation = "CHECKPOINT";
  LAKEKIT_RETURN_IF_ERROR(store_->Put(CheckpointKey(version),
                                      json::Write(CommitToJson(state))));
  return store_->Put(prefix_ + "/_delta_log/_last_checkpoint",
                     std::to_string(version));
}

Result<std::vector<std::string>> DeltaLog::History() const {
  LAKEKIT_ASSIGN_OR_RETURN(int64_t latest, LatestVersion());
  std::vector<std::string> out;
  for (int64_t v = 0; v <= latest; ++v) {
    LAKEKIT_ASSIGN_OR_RETURN(Commit commit, ReadCommit(v));
    out.push_back(commit.operation);
  }
  return out;
}

}  // namespace lakekit::lakehouse
