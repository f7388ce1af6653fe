#ifndef LAKE_E2E_HARNESS_TRACE_H_
#define LAKE_E2E_HARNESS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lake_e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
inline double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// One recorded call into a layer. Names are string literals of the form
/// "<layer>.<stem>" ("table.from_csv"); a request's root span is named
/// "e2e.<kind>" and its self time is the part of the request no layer span
/// covers.
struct SpanRecord {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Measurement probes run inside this span (see Probe):
  /// subtracted from its duration, so probes cost no layer any time.
  int64_t excluded_ns = 0;
  /// Index of the parent in the same thread's buffer; -1 for a root.
  int32_t parent = -1;
  uint64_t request = 0;
};

/// Counts recorded at the same boundaries as the spans.
struct TraceCounters {
  uint64_t csv_bytes = 0;         // bytes handed to csv::Parse
  uint64_t json_bytes = 0;        // bytes handed to json::Parse
  uint64_t rows_decoded = 0;      // rows of tables built by FromCsv/FromJson
  uint64_t decoded_bytes = 0;     // EstimateTableBytes of those tables
  uint64_t decoded_raw_bytes = 0; // raw bytes those tables came from
  uint64_t object_get_bytes = 0;  // bytes returned by ObjectStore::Get
  uint64_t search_entries_parsed = 0;
  uint64_t josie_queries = 0;
  uint64_t josie_postings = 0;
  uint64_t morsels_total = 0;
  uint64_t morsels_pruned = 0;

  void Add(const TraceCounters& o);
};

/// The spans of one client thread. Single-threaded by construction: each
/// client owns one and passes it down the calls it traces. Spans stay in
/// memory until the run ends.
class ThreadTrace {
 public:
  /// Starts a new request; spans opened until the next call carry its id.
  void BeginRequest() { ++request_; }

  /// Opens a span under the innermost open one; returns its index.
  int32_t Open(const char* name);
  /// Closes the innermost open span, `idx` (spans are scoped objects, so
  /// they close in reverse order).
  void Close(int32_t idx);

  /// Adds a child of the innermost open span whose duration `ns` was
  /// measured elsewhere; it is placed at the start of its parent.
  void AddSynthetic(const char* name, int64_t ns);

  /// Removes `ns` of probe time from every open span.
  void Exclude(int64_t ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  TraceCounters& counters() { return counters_; }
  const TraceCounters& counters() const { return counters_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
  uint64_t request_ = 0;
  TraceCounters counters_;
};

/// RAII span; a null ThreadTrace makes it a no-op, so traced helpers also
/// run untraced.
class Span {
 public:
  Span(ThreadTrace* trace, const char* name)
      : trace_(trace), idx_(trace == nullptr ? -1 : trace->Open(name)) {}
  ~Span() {
    if (trace_ != nullptr) trace_->Close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* trace_;
  int32_t idx_;
};

/// RAII measurement probe: work done inside it (re-parsing bytes to split a
/// decode, sizing a table) is excluded from every open span.
class Probe {
 public:
  explicit Probe(ThreadTrace* trace)
      : trace_(trace), start_(trace == nullptr ? 0 : NowNs()) {}
  ~Probe() {
    if (trace_ != nullptr) trace_->Exclude(NowNs() - start_);
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  ThreadTrace* trace_;
  int64_t start_;
};

/// Self time per span: its duration, less probe time, less the time its
/// children cover (the union of their intervals, so overlapping children
/// are not counted twice). Parallel to `spans`.
std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans);

/// Per-name totals over any number of threads.
struct NameTotals {
  uint64_t calls = 0;
  int64_t self_ns = 0;
};

struct TraceSummary {
  std::map<std::string, NameTotals> by_name;
  /// Self time per layer: the name's prefix before '.'; "e2e" is the
  /// unattributed remainder of the requests.
  std::map<std::string, int64_t> by_layer;
  /// Sum of the roots' durations (probes excluded): the traced wall time
  /// the layer shares are taken of.
  int64_t wall_ns = 0;
  uint64_t requests = 0;
  TraceCounters counters;

  /// Mean self time per call in ms (0 without calls).
  double MeanMs(const std::string& name) const;
  uint64_t Calls(const std::string& name) const;
  double Share(const std::string& layer) const;
};

class Tracer {
 public:
  /// A fresh per-thread buffer, owned by the tracer.
  ThreadTrace* NewThread();

  TraceSummary Summarize() const;

  /// Writes every span as a tab-separated line
  /// (thread, request, name, start_ns, end_ns, excluded_ns, parent, self_ns).
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

}  // namespace lake_e2e

#endif  // LAKE_E2E_HARNESS_TRACE_H_
