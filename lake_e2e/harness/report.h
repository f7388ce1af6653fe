#ifndef LAKE_E2E_HARNESS_REPORT_H_
#define LAKE_E2E_HARNESS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/stats.h"
#include "harness/trace.h"

namespace lake_e2e {

/// One run of one workload, as main() was asked for it.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Fresh directory the run's lakes live under (created and removed by
  /// the workload).
  std::string lake_dir;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_out;
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What a workload hands back to main().
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first failed answer check; set iff !correct.
  std::string error;
  /// Untraced run: the end-to-end metrics. Traced run: the per-layer ones.
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> report;
  /// Load shape, for the stamp.
  size_t clients = 0;
  size_t pool_workers = 0;
  size_t cache_capacity_bytes = 0;

  void Fail(const std::string& what);
  void Line(const std::string& line) { report.push_back(line); }
};

/// Counters the program itself keeps, read at the end of a traced run.
/// Volumes are per workload operation (a cold build in lake_build, a query
/// in the query workloads) so runs of different lengths compare.
struct ProgramCounters {
  uint64_t traced_ops = 0;  // traced work units (builds or queries)
  double cache_hit_ratio = 0;
  double cache_evictions_per_op = 0;
  double admission_queued_per_op = 0;
  double admission_shed_per_op = 0;
  double budget_peak_mb = 0;
  uint64_t corpus_columns = 0;
  uint64_t ekg_edges = 0;
  uint64_t josie_index_tokens = 0;
  double disk_bytes_per_raw_byte = 0;
  double ship_ratio = 0;
  double overhead_frac = 0;
};

/// Tracing overhead: the traced wall time per unit (probes excluded, as in
/// every layer figure) over the mean untraced unit latency, minus 1. A unit
/// is what both halves of a traced run share: a cold build, a query, a
/// refresh step.
double OverheadFrac(const TraceSummary& trace, size_t traced_units,
                    const std::vector<double>& untraced_unit_ms);

/// Builds the per-layer metrics (BENCHMARK.json order) from the trace and
/// the program's counters, and adds the "where the time goes" table and
/// every per-call self time to the report.
void AddPerLayer(const TraceSummary& trace, const ProgramCounters& counters,
                 RunResult* out);

/// Adds "name = value unit" to the report; `json` also makes it a metric.
void AddMetric(RunResult* out, const std::string& name, const std::string& unit,
               double value, bool json);

/// setup_s: the median of the run's set-ups, each listed in the report.
void AddSetup(RunResult* out, const std::vector<double>& setups_s, bool json);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Bytes of every regular file under `dir`.
uint64_t DiskBytes(const std::string& dir);

/// Host and input stamp, one JSON object on one line.
std::string Stamp(const RunConfig& cfg, const RunResult& r);

/// The last line of stdout: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& r);

}  // namespace lake_e2e

#endif  // LAKE_E2E_HARNESS_REPORT_H_
