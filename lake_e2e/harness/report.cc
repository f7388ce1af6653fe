#include "harness/report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#ifndef LAKE_E2E_BUILD_TYPE
#define LAKE_E2E_BUILD_TYPE "unknown"
#endif

namespace lake_e2e {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// The layers of ROADMAP aim 1, in pipeline order.
const char* const kLayers[] = {"ingest",  "csv",     "json",
                               "table",   "storage", "catalog",
                               "provenance", "discovery", "query"};

/// Every per-call stem the benchmark defines, printed even when a
/// workload never calls it so each report has the same rows.
const char* const kStems[] = {
    "ingest.detect",         "ingest.profile_file",
    "csv.parse",             "json.parse",
    "table.from_csv",        "table.from_json",
    "storage.object_put",    "storage.object_get",
    "storage.read_relational", "storage.read_document",
    "storage.read_object",   "storage.store_table",
    "storage.store_documents", "catalog.register",
    "catalog.update",        "catalog.get",
    "catalog.search",        "provenance.record",
    "discovery.corpus_add",  "discovery.aurum_build",
    "discovery.josie_build", "discovery.union_build",
    "discovery.aurum_topk",  "discovery.josie_topk",
    "discovery.union_topk",  "query.admission",
    "query.parse",           "query.cache_find",
    "query.cache_admit",     "query.filter",
    "query.join",            "query.aggregate",
    "query.sort",            "query.materialize"};

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

double Per(double total, uint64_t n) {
  return n == 0 ? 0 : total / static_cast<double>(n);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void RunResult::Fail(const std::string& what) {
  if (correct) error = what;
  correct = false;
}

void AddMetric(RunResult* out, const std::string& name, const std::string& unit,
               double value, bool json) {
  out->Line(name + " = " + Fmt("%.6g", value) + " " + unit);
  if (json) out->metrics.push_back(Metric{name, unit, value});
}

double OverheadFrac(const TraceSummary& trace, size_t traced_units,
                    const std::vector<double>& untraced_unit_ms) {
  double sum = 0;
  for (double v : untraced_unit_ms) sum += v;
  if (traced_units == 0 || sum <= 0) return 0;
  const double base = sum / static_cast<double>(untraced_unit_ms.size());
  const double traced =
      static_cast<double>(trace.wall_ns) / 1e6 / static_cast<double>(traced_units);
  return traced / base - 1;
}

void AddPerLayer(const TraceSummary& trace, const ProgramCounters& pc,
                 RunResult* out) {
  const double wall_ms = static_cast<double>(trace.wall_ns) / 1e6;
  out->Line("where the time goes (traced self time over " +
            Fmt("%.1f", wall_ms) + " ms of traced request wall time, " +
            std::to_string(trace.requests) + " requests):");
  for (const char* layer : kLayers) {
    auto it = trace.by_layer.find(layer);
    const double ms = it == trace.by_layer.end()
                          ? 0
                          : static_cast<double>(it->second) / 1e6;
    std::string name(layer);
    name.resize(12, ' ');
    out->Line("  " + name + Fmt("%10.2f ms", ms) +
              Fmt("  %6.2f%%", 100 * trace.Share(layer)));
  }
  const double unattributed = trace.Share("e2e");
  out->Line("  unattributed" + Fmt("%10.2f ms", unattributed * wall_ms) +
            Fmt("  %6.2f%%", 100 * unattributed));

  out->Line("per-call self time (mean ms per call, calls):");
  std::set<std::string> printed;
  auto stem_line = [&](const std::string& name) {
    printed.insert(name);
    out->Line("  " + name + "_ms = " + Fmt("%.6g", trace.MeanMs(name)) +
              " ms (calls=" + std::to_string(trace.Calls(name)) + ")");
  };
  for (const char* stem : kStems) stem_line(stem);
  for (const auto& [name, totals] : trace.by_name) {
    if (printed.count(name) == 0) stem_line(name);
  }

  const TraceCounters& c = trace.counters;
  const uint64_t n = pc.traced_ops;
  for (const char* layer : kLayers) {
    AddMetric(out, std::string(layer) + ".self_share", "fraction",
              trace.Share(layer), true);
  }
  AddMetric(out, "trace.overhead_frac", "fraction", pc.overhead_frac, true);
  AddMetric(out, "trace.unattributed_frac", "fraction", unattributed, true);
  AddMetric(out, "csv.parse_mb", "MB", Per(c.csv_bytes / kMiB, n), true);
  AddMetric(out, "json.parse_mb", "MB", Per(c.json_bytes / kMiB, n), true);
  AddMetric(out, "table.from_csv_calls", "count",
            Per(static_cast<double>(trace.Calls("table.from_csv")), n), true);
  AddMetric(out, "table.rows_decoded", "count",
            Per(static_cast<double>(c.rows_decoded), n), true);
  AddMetric(out, "table.decoded_bytes_per_raw_byte", "ratio",
            c.decoded_raw_bytes == 0
                ? 0
                : static_cast<double>(c.decoded_bytes) /
                      static_cast<double>(c.decoded_raw_bytes),
            true);
  AddMetric(out, "storage.object_get_mb", "MB",
            Per(c.object_get_bytes / kMiB, n), true);
  AddMetric(out, "storage.disk_bytes_per_raw_byte", "ratio",
            pc.disk_bytes_per_raw_byte, true);
  AddMetric(out, "catalog.search_entries_parsed", "count",
            Per(static_cast<double>(c.search_entries_parsed),
                trace.Calls("catalog.search")),
            true);
  AddMetric(out, "discovery.corpus_columns", "count",
            static_cast<double>(pc.corpus_columns), true);
  AddMetric(out, "discovery.ekg_edges", "count",
            static_cast<double>(pc.ekg_edges), true);
  AddMetric(out, "discovery.josie_index_tokens", "count",
            static_cast<double>(pc.josie_index_tokens), true);
  AddMetric(out, "discovery.josie_postings_per_query", "count",
            Per(static_cast<double>(c.josie_postings), c.josie_queries), true);
  AddMetric(out, "query.admission_queued", "count", pc.admission_queued_per_op,
            true);
  AddMetric(out, "query.admission_shed", "count", pc.admission_shed_per_op,
            true);
  AddMetric(out, "query.budget_peak_mb", "MB", pc.budget_peak_mb, true);
  AddMetric(out, "query.cache_hit_ratio", "fraction", pc.cache_hit_ratio, true);
  AddMetric(out, "query.cache_evictions", "count", pc.cache_evictions_per_op,
            true);
  AddMetric(out, "query.morsels_pruned_frac", "fraction",
            c.morsels_total == 0 ? 0
                                 : static_cast<double>(c.morsels_pruned) /
                                       static_cast<double>(c.morsels_total),
            true);
  AddMetric(out, "query.ship_ratio", "fraction", pc.ship_ratio, true);
}

void AddSetup(RunResult* out, const std::vector<double>& setups_s, bool json) {
  std::string line = "set-ups:";
  for (double s : setups_s) line += Fmt(" %.4f", s);
  out->Line(line + " s");
  AddMetric(out, "setup_s", "s", Median(setups_s), json);
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DiskBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uintmax_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

std::string Stamp(const RunConfig& cfg, const RunResult& r) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"workload\": " + JsonString(cfg.workload) +
         ", \"seed\": " + std::to_string(cfg.seed) +
         ", \"seconds\": " + JsonNumber(cfg.seconds) +
         ", \"trace\": " + (cfg.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"build_type\": " + JsonString(LAKE_E2E_BUILD_TYPE) +
         ", \"compiler\": " + JsonString(compiler) +
         ", \"git_sha\": " + JsonString(cfg.git_sha) +
         ", \"client_threads\": " + std::to_string(r.clients) +
         ", \"pool_workers\": " + std::to_string(r.pool_workers) +
         ", \"table_cache_bytes\": " + std::to_string(r.cache_capacity_bytes) +
         ", \"flush_policy\": \"kv sync_writes=on; object fsync+rename\"}";
}

std::string ResultJson(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(r.metrics[i].name) + ": {\"value\": " +
           JsonNumber(r.metrics[i].value) +
           ", \"unit\": " + JsonString(r.metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace lake_e2e
