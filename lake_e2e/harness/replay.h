#ifndef LAKE_E2E_HARNESS_REPLAY_H_
#define LAKE_E2E_HARNESS_REPLAY_H_

// Traced replays of the entry points that do several layers' work in one
// call: DataLake::IngestFile, DataLake::BuildDiscoveryIndexes,
// Profiler::ProfileFile, Polystore::ReadAsTable and FederatedEngine::Query.
// Each makes the same sequence of public calls as the entry point, with one
// span around each call into a layer (names in README.md). The workloads
// check that a replay's outputs equal the entry point's, so a replay that
// drifts from the program fails the run instead of measuring something else.

#include <memory>
#include <string>
#include <string_view>

#include "catalog/catalog.h"
#include "common/memory_budget.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/data_lake.h"
#include "discovery/aurum.h"
#include "discovery/corpus.h"
#include "discovery/josie.h"
#include "discovery/union_search.h"
#include "harness/trace.h"
#include "ingest/profiler.h"
#include "query/admission.h"
#include "query/federation.h"
#include "query/table_cache.h"
#include "storage/polystore.h"
#include "table/table.h"

namespace lake_e2e {

/// The catalog entry DataLake::IngestFile registers for `profile`.
lakekit::catalog::DatasetEntry MakeCatalogEntry(
    std::string_view name, const lakekit::ingest::FileProfile& profile,
    const lakekit::core::IngestOptions& options);

/// Whether two profiles agree field by field ("" when they do).
std::string DiffProfiles(const lakekit::ingest::FileProfile& a,
                         const lakekit::ingest::FileProfile& b);

/// Table::FromCsv, split into its tokenizer share: the same bytes are
/// parsed again by csv::Parse inside a probe and that time becomes a
/// "csv.parse" child, so "table.from_csv" self time is the decode net of
/// tokenizing.
lakekit::Result<lakekit::table::Table> DecodeCsv(ThreadTrace* tt,
                                                 std::string name,
                                                 std::string_view text);

/// Profiler::ProfileFile.
lakekit::Result<lakekit::ingest::FileProfile> ProfileFile(
    ThreadTrace* tt, std::string_view name, std::string_view path,
    std::string_view content);

/// Polystore::ReadAsTable, one span per tier.
lakekit::Result<lakekit::table::Table> ReadAsTable(
    ThreadTrace* tt, const lakekit::storage::Polystore& polystore,
    std::string_view name);

/// DataLake::IngestFile against `lake`'s polystore, catalog and provenance.
lakekit::Result<lakekit::catalog::DatasetEntry> IngestFile(
    ThreadTrace* tt, lakekit::core::DataLake* lake, std::string_view name,
    std::string_view filename, std::string_view content,
    const lakekit::core::IngestOptions& options);

/// The discovery indexes DataLake::BuildDiscoveryIndexes builds, owned by
/// the benchmark so the traced requests can reach them.
struct DiscoveryIndexes {
  std::unique_ptr<lakekit::discovery::Corpus> corpus;
  std::unique_ptr<lakekit::discovery::AurumFinder> aurum;
  std::unique_ptr<lakekit::discovery::JosieFinder> josie;
  std::unique_ptr<lakekit::discovery::UnionSearch> union_search;
};

lakekit::Status BuildDiscoveryIndexes(ThreadTrace* tt,
                                      lakekit::core::DataLake* lake,
                                      DiscoveryIndexes* out);

/// What FederatedEngine::Query is configured with.
struct EngineParts {
  lakekit::storage::Polystore* polystore = nullptr;
  lakekit::query::TableCache* cache = nullptr;
  lakekit::MemoryBudget* budget = nullptr;
  lakekit::query::AdmissionController* admission = nullptr;
  lakekit::ThreadPool* pool = nullptr;
};

/// FederatedEngine::Query with a cache, a memory budget and admission
/// control, as configured in `parts`. `stats` receives the replay's rows
/// scanned and shipped, counted where the engine counts them.
lakekit::Result<lakekit::table::Table> Query(
    ThreadTrace* tt, const EngineParts& parts, std::string_view sql,
    lakekit::query::FederationStats* stats);

}  // namespace lake_e2e

#endif  // LAKE_E2E_HARNESS_REPLAY_H_
