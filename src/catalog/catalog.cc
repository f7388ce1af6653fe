#include "catalog/catalog.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "common/string_util.h"
#include "json/parser.h"
#include "json/writer.h"

namespace lakekit::catalog {

namespace {

/// Current-version key: "ds/<name>".
std::string EntryKey(std::string_view name) {
  return "ds/" + std::string(name);
}

/// History key: "hist/<name>/<zero-padded version>" — zero padding keeps the
/// KV store's lexicographic order equal to numeric version order.
std::string HistoryKey(std::string_view name, uint64_t version) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(version));
  return "hist/" + std::string(name) + "/" + buf;
}

/// The history records of `name` alone. A scan of "hist/<name>/" also
/// returns those of datasets named "<name>/...", whose remainder after the
/// prefix holds a '/'; this dataset's remainder is its version's digits.
Result<std::vector<std::pair<std::string, std::string>>> ScanHistory(
    const storage::KvStore& store, std::string_view name) {
  const std::string prefix = "hist/" + std::string(name) + "/";
  LAKEKIT_ASSIGN_OR_RETURN(auto pairs, store.ScanPrefix(prefix));
  std::erase_if(pairs, [&prefix](const auto& pair) {
    const std::string_view version =
        std::string_view(pair.first).substr(prefix.size());
    return version.empty() ||
           !std::all_of(version.begin(), version.end(),
                        [](char c) { return c >= '0' && c <= '9'; });
  });
  return pairs;
}

Status NotCataloged(std::string_view name) {
  return Status::NotFound("dataset '" + std::string(name) + "' not cataloged");
}

json::Value StringsToJson(const std::vector<std::string>& items) {
  json::Array arr;
  for (const std::string& s : items) arr.emplace_back(s);
  return json::Value(std::move(arr));
}

std::vector<std::string> JsonToStrings(const json::Value* v) {
  std::vector<std::string> out;
  if (v == nullptr || !v->is_array()) return out;
  for (const json::Value& item : v->as_array()) {
    if (item.is_string()) out.push_back(item.as_string());
  }
  return out;
}

}  // namespace

json::Value DatasetEntry::ToJson() const {
  json::Object o;
  o.Set("name", json::Value(name));
  o.Set("path", json::Value(path));
  o.Set("format", json::Value(format));
  o.Set("size_bytes", json::Value(static_cast<int64_t>(size_bytes)));
  o.Set("num_records", json::Value(static_cast<int64_t>(num_records)));
  o.Set("schema", json::Value(schema));
  o.Set("content", content);
  o.Set("sources", StringsToJson(sources));
  o.Set("producing_job", json::Value(producing_job));
  o.Set("description", json::Value(description));
  o.Set("tags", StringsToJson(tags));
  o.Set("owner", json::Value(owner));
  o.Set("project", json::Value(project));
  o.Set("created_at", json::Value(created_at));
  o.Set("updated_at", json::Value(updated_at));
  o.Set("version", json::Value(static_cast<int64_t>(version)));
  return json::Value(std::move(o));
}

Result<DatasetEntry> DatasetEntry::FromJson(const json::Value& v) {
  if (!v.is_object()) {
    return Status::Corruption("dataset entry is not a JSON object");
  }
  DatasetEntry e;
  e.name = v.GetString("name");
  if (e.name.empty()) {
    return Status::Corruption("dataset entry missing 'name'");
  }
  e.path = v.GetString("path");
  e.format = v.GetString("format");
  e.size_bytes = static_cast<uint64_t>(v.GetInt("size_bytes"));
  e.num_records = static_cast<uint64_t>(v.GetInt("num_records"));
  e.schema = v.GetString("schema");
  if (const json::Value* content = v.Get("content")) e.content = *content;
  e.sources = JsonToStrings(v.Get("sources"));
  e.producing_job = v.GetString("producing_job");
  e.description = v.GetString("description");
  e.tags = JsonToStrings(v.Get("tags"));
  e.owner = v.GetString("owner");
  e.project = v.GetString("project");
  e.created_at = v.GetInt("created_at");
  e.updated_at = v.GetInt("updated_at");
  e.version = static_cast<uint64_t>(v.GetInt("version"));
  return e;
}

Catalog::Catalog(std::unique_ptr<storage::KvStore> store)
    : store_(std::move(store)) {}

Result<Catalog> Catalog::Open(const std::string& dir) {
  LAKEKIT_ASSIGN_OR_RETURN(auto store, storage::KvStore::Open(dir));
  Catalog catalog(std::move(store));
  // Restore the logical clock.
  Result<std::string> clock = catalog.store_->Get("meta/clock");
  if (clock.ok()) {
    const char* end = clock->data() + clock->size();
    auto [ptr, ec] = std::from_chars(clock->data(), end, catalog.clock_);
    if (ec != std::errc() || ptr != end) {
      return Status::Corruption("unparsable catalog clock '" + *clock + "'");
    }
  }
  LAKEKIT_ASSIGN_OR_RETURN(auto pairs, catalog.store_->ScanPrefix("ds/"));
  for (const auto& [key, payload] : pairs) {
    catalog.current_.emplace(key.substr(3), Load(payload));
  }
  return catalog;
}

Result<Catalog::Current> Catalog::Load(std::string_view payload) {
  LAKEKIT_ASSIGN_OR_RETURN(json::Value v, json::Parse(payload));
  LAKEKIT_ASSIGN_OR_RETURN(DatasetEntry e, DatasetEntry::FromJson(v));
  std::string text = ToLower(e.name) + " " + ToLower(e.description) + " " +
                     ToLower(e.schema);
  for (const std::string& tag : e.tags) text += " " + ToLower(tag);
  for (const std::string& kw : JsonToStrings(e.content.Get("keywords"))) {
    text += " " + ToLower(kw);
  }
  return Current{std::move(e), std::move(text)};
}

Status Catalog::Write(const DatasetEntry& entry) {
  std::string payload = json::Write(entry.ToJson());
  // The in-memory entry is the payload parsed back, so it is exactly what a
  // reopened catalog would hold.
  LAKEKIT_ASSIGN_OR_RETURN(Current current, Load(payload));
  storage::WriteBatch batch;
  batch.Put("meta/clock", std::to_string(entry.updated_at));
  batch.Put(EntryKey(entry.name), payload);
  batch.Put(HistoryKey(entry.name, entry.version), payload);
  LAKEKIT_RETURN_IF_ERROR(store_->Write(batch));
  clock_ = entry.updated_at;
  current_.insert_or_assign(entry.name, std::move(current));
  return Status::OK();
}

Status Catalog::Register(DatasetEntry entry) {
  if (entry.name.empty()) {
    return Status::InvalidArgument("dataset entry needs a name");
  }
  if (current_.find(entry.name) != current_.end()) {
    return Status::AlreadyExists("dataset '" + entry.name +
                                 "' already cataloged");
  }
  entry.version = 1;
  entry.created_at = clock_ + 1;
  entry.updated_at = entry.created_at;
  return Write(entry);
}

Status Catalog::Update(DatasetEntry entry) {
  LAKEKIT_ASSIGN_OR_RETURN(DatasetEntry current, Get(entry.name));
  entry.version = current.version + 1;
  entry.created_at = current.created_at;
  entry.updated_at = clock_ + 1;
  return Write(entry);
}

Result<DatasetEntry> Catalog::Get(std::string_view name) const {
  auto it = current_.find(name);
  if (it == current_.end()) return NotCataloged(name);
  if (!it->second.ok()) return it->second.status();
  return it->second->entry;
}

Result<DatasetEntry> Catalog::GetVersion(std::string_view name,
                                         uint64_t version) const {
  LAKEKIT_ASSIGN_OR_RETURN(std::string payload,
                           store_->Get(HistoryKey(name, version)));
  LAKEKIT_ASSIGN_OR_RETURN(json::Value v, json::Parse(payload));
  return DatasetEntry::FromJson(v);
}

Result<std::vector<DatasetEntry>> Catalog::History(
    std::string_view name) const {
  LAKEKIT_ASSIGN_OR_RETURN(auto pairs, ScanHistory(*store_, name));
  std::vector<DatasetEntry> out;
  for (const auto& [key, payload] : pairs) {
    LAKEKIT_ASSIGN_OR_RETURN(json::Value v, json::Parse(payload));
    LAKEKIT_ASSIGN_OR_RETURN(DatasetEntry e, DatasetEntry::FromJson(v));
    out.push_back(std::move(e));
  }
  if (out.empty()) {
    return Status::NotFound("no history for dataset '" + std::string(name) +
                            "'");
  }
  return out;
}

Status Catalog::Remove(std::string_view name) {
  auto it = current_.find(name);
  if (it == current_.end()) return NotCataloged(name);
  LAKEKIT_ASSIGN_OR_RETURN(auto pairs, ScanHistory(*store_, name));
  storage::WriteBatch batch;
  batch.Delete(EntryKey(name));
  for (const auto& [key, payload] : pairs) batch.Delete(key);
  LAKEKIT_RETURN_IF_ERROR(store_->Write(batch));
  current_.erase(it);
  return Status::OK();
}

std::vector<std::string> Catalog::ListDatasets() const {
  std::vector<std::string> out;
  out.reserve(current_.size());
  for (const auto& [name, current] : current_) out.push_back(name);
  return out;
}

std::vector<DatasetEntry> Catalog::Filter(
    const std::function<bool(const Current&)>& keep) const {
  std::vector<DatasetEntry> out;
  for (const auto& [name, current] : current_) {
    if (current.ok() && keep(*current)) out.push_back(current->entry);
  }
  return out;
}

std::vector<DatasetEntry> Catalog::Search(std::string_view keyword) const {
  const std::string needle = ToLower(keyword);
  return Filter([&needle](const Current& c) {
    return c.search_text.find(needle) != std::string::npos;
  });
}

std::vector<DatasetEntry> Catalog::FindByTag(std::string_view tag) const {
  return Filter([tag](const Current& c) {
    const std::vector<std::string>& tags = c.entry.tags;
    return std::find(tags.begin(), tags.end(), tag) != tags.end();
  });
}

std::vector<DatasetEntry> Catalog::FindByOwner(std::string_view owner) const {
  return Filter(
      [owner](const Current& c) { return c.entry.owner == owner; });
}

}  // namespace lakekit::catalog
