#include "lakehouse/delta_table.h"

#include <algorithm>

#include "common/hash.h"
#include "common/string_util.h"
#include "query/vec.h"

namespace lakekit::lakehouse {

Result<table::Schema> SchemaFromSignature(const std::string& signature) {
  table::Schema schema;
  if (signature.empty()) return schema;
  for (const std::string& part : Split(signature, ',')) {
    std::vector<std::string> kv = Split(part, ':');
    if (kv.size() != 2) {
      return Status::Corruption("bad schema signature segment '" + part + "'");
    }
    schema.AddField(table::Field{kv[0], table::DataTypeFromName(kv[1]), true});
  }
  return schema;
}

DeltaTable::DeltaTable(storage::ObjectStore* store, std::string name,
                       table::Schema schema)
    : store_(store),
      name_(std::move(name)),
      schema_(std::move(schema)),
      log_(store, "tables/" + name_) {}

Result<DeltaTable> DeltaTable::Create(storage::ObjectStore* store,
                                      const std::string& name,
                                      const table::Schema& schema) {
  DeltaTable t(store, name, schema);
  LAKEKIT_ASSIGN_OR_RETURN(int64_t latest, t.log_.LatestVersion());
  if (latest >= 0) {
    return Status::AlreadyExists("delta table '" + name + "' already exists");
  }
  Commit commit;
  commit.operation = "CREATE";
  commit.metadata = TableMetadata{name, schema.ToString()};
  LAKEKIT_RETURN_IF_ERROR(t.log_.TryCommit(commit, -1).status());
  return t;
}

Result<DeltaTable> DeltaTable::Open(storage::ObjectStore* store,
                                    const std::string& name) {
  DeltaLog log(store, "tables/" + name);
  LAKEKIT_ASSIGN_OR_RETURN(Snapshot snapshot, log.GetSnapshot());
  LAKEKIT_ASSIGN_OR_RETURN(table::Schema schema,
                           SchemaFromSignature(snapshot.metadata.schema));
  DeltaTable t(store, name, std::move(schema));
  // Continue part numbering past existing files.
  t.next_part_ = static_cast<uint64_t>(snapshot.version + 1) * 1000;
  return t;
}

Status DeltaTable::CheckSchema(const table::Table& rows) const {
  if (rows.schema() == schema_) return Status::OK();
  return Status::InvalidArgument(
      "schema mismatch: table has [" + schema_.ToString() + "], rows have [" +
      rows.schema().ToString() + "]");
}

Result<AddFile> DeltaTable::WritePart(const table::Table& rows) {
  // Content-addressed-ish unique name: counter + content hash avoids
  // collisions across writers.
  std::string csv = rows.ToCsv();
  std::string path = "tables/" + name_ + "/part-" +
                     std::to_string(next_part_++) + "-" +
                     std::to_string(Fnv1a64(csv) & 0xFFFFFF) + ".csv";
  LAKEKIT_RETURN_IF_ERROR(store_->Put(path, csv));
  return AddFile{path, csv.size()};
}

Status DeltaTable::Append(const table::Table& rows) {
  LAKEKIT_RETURN_IF_ERROR(CheckSchema(rows));
  if (rows.num_rows() == 0) return Status::OK();
  LAKEKIT_ASSIGN_OR_RETURN(AddFile add, WritePart(rows));
  LAKEKIT_ASSIGN_OR_RETURN(int64_t read_version, log_.LatestVersion());
  Commit commit;
  commit.operation = "APPEND";
  commit.adds.push_back(std::move(add));
  return log_.TryCommit(commit, read_version).status();
}

Status DeltaTable::Overwrite(const table::Table& rows) {
  LAKEKIT_RETURN_IF_ERROR(CheckSchema(rows));
  LAKEKIT_ASSIGN_OR_RETURN(int64_t read_version, log_.LatestVersion());
  LAKEKIT_ASSIGN_OR_RETURN(Snapshot snapshot, log_.GetSnapshot(read_version));
  Commit commit;
  commit.operation = "OVERWRITE";
  for (const AddFile& f : snapshot.files) {
    commit.removes.push_back(RemoveFile{f.path});
  }
  if (rows.num_rows() > 0) {
    LAKEKIT_ASSIGN_OR_RETURN(AddFile add, WritePart(rows));
    commit.adds.push_back(std::move(add));
  }
  // Overwrite must carry metadata so IsAppendOnly() is false... it already
  // has removes; metadata unchanged.
  return log_.TryCommit(commit, read_version).status();
}

Status DeltaTable::DeleteWhere(const query::Expr& predicate) {
  LAKEKIT_ASSIGN_OR_RETURN(int64_t read_version, log_.LatestVersion());
  LAKEKIT_ASSIGN_OR_RETURN(Snapshot snapshot, log_.GetSnapshot(read_version));
  // Every part decodes to schema_, so the predicate compiles once.
  LAKEKIT_ASSIGN_OR_RETURN(query::CompiledExpr compiled,
                           query::CompiledExpr::Compile(predicate, schema_));
  Commit commit;
  commit.operation = "DELETE";
  for (const AddFile& f : snapshot.files) {
    LAKEKIT_ASSIGN_OR_RETURN(std::string csv, store_->Get(f.path));
    LAKEKIT_ASSIGN_OR_RETURN(table::Table part,
                             table::Table::FromCsv(name_, csv, schema_));
    const size_t rows = part.num_rows();
    query::SelVector matching;
    for (size_t begin = 0; begin < rows; begin += query::kMorselSize) {
      LAKEKIT_RETURN_IF_ERROR(compiled.EvalSelection(
          part, begin, std::min(rows, begin + query::kMorselSize),
          &matching));
    }
    if (matching.empty()) continue;  // file untouched
    commit.removes.push_back(RemoveFile{f.path});
    // Rewrite: rows where the predicate is false or NULL survive.
    std::vector<uint32_t> kept;
    kept.reserve(rows - matching.size());
    size_t next_match = 0;
    for (uint32_t r = 0; r < rows; ++r) {
      if (next_match < matching.size() && matching[next_match] == r) {
        ++next_match;
      } else {
        kept.push_back(r);
      }
    }
    if (!kept.empty()) {
      table::Table survivors(name_, part.schema());
      LAKEKIT_RETURN_IF_ERROR(
          survivors.AppendRowsFrom(part, kept.data(), kept.size()));
      LAKEKIT_ASSIGN_OR_RETURN(AddFile add, WritePart(survivors));
      commit.adds.push_back(std::move(add));
    }
  }
  if (commit.removes.empty()) return Status::OK();  // nothing matched
  return log_.TryCommit(commit, read_version).status();
}

Result<table::Table> DeltaTable::Read(std::optional<int64_t> version) const {
  LAKEKIT_ASSIGN_OR_RETURN(Snapshot snapshot, log_.GetSnapshot(version));
  LAKEKIT_ASSIGN_OR_RETURN(table::Schema schema,
                           SchemaFromSignature(snapshot.metadata.schema));
  table::Table out(name_, schema);
  for (const AddFile& f : snapshot.files) {
    LAKEKIT_ASSIGN_OR_RETURN(std::string csv, store_->Get(f.path));
    // Part files decode against the table's own schema, never re-sniffed:
    // a string column of "007" reads back as "007", not 7.
    LAKEKIT_ASSIGN_OR_RETURN(table::Table part,
                             table::Table::FromCsv(name_, csv, schema));
    LAKEKIT_RETURN_IF_ERROR(
        out.AppendRowsFrom(part, /*rows=*/nullptr, part.num_rows()));
  }
  return out;
}

Result<int64_t> DeltaTable::Version() const { return log_.LatestVersion(); }

Status DeltaTable::Checkpoint() {
  LAKEKIT_ASSIGN_OR_RETURN(int64_t version, log_.LatestVersion());
  if (version < 0) return Status::FailedPrecondition("empty table");
  return log_.WriteCheckpoint(version);
}

}  // namespace lakekit::lakehouse
