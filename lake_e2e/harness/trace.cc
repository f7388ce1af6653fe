#include "harness/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace lake_e2e {

void TraceCounters::Add(const TraceCounters& o) {
  csv_bytes += o.csv_bytes;
  json_bytes += o.json_bytes;
  rows_decoded += o.rows_decoded;
  decoded_bytes += o.decoded_bytes;
  decoded_raw_bytes += o.decoded_raw_bytes;
  object_get_bytes += o.object_get_bytes;
  search_entries_parsed += o.search_entries_parsed;
  josie_queries += o.josie_queries;
  josie_postings += o.josie_postings;
  morsels_total += o.morsels_total;
  morsels_pruned += o.morsels_pruned;
}

int32_t ThreadTrace::Open(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.request = request_;
  const auto idx = static_cast<int32_t>(spans_.size());
  spans_.push_back(rec);
  open_.push_back(idx);
  spans_.back().start_ns = NowNs();
  return idx;
}

void ThreadTrace::Close(int32_t idx) {
  spans_[static_cast<size_t>(idx)].end_ns = NowNs();
  open_.pop_back();
}

void ThreadTrace::AddSynthetic(const char* name, int64_t ns) {
  SpanRecord rec;
  rec.name = name;
  rec.request = request_;
  if (!open_.empty()) {
    rec.parent = open_.back();
    rec.start_ns = spans_[static_cast<size_t>(rec.parent)].start_ns;
  } else {
    rec.start_ns = NowNs();
  }
  rec.end_ns = rec.start_ns + std::max<int64_t>(ns, 0);
  spans_.push_back(rec);
}

void ThreadTrace::Exclude(int64_t ns) {
  for (int32_t idx : open_) spans_[static_cast<size_t>(idx)].excluded_ns += ns;
}

std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    // Children are clipped to the parent; a child's own probe time is
    // already inside the parent's excluded time, so it is handed back.
    intervals.clear();
    int64_t child_excluded = 0;
    for (size_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
      child_excluded += spans[c].excluded_ns;
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    const int64_t duration = s.end_ns - s.start_ns - s.excluded_ns;
    self[i] = std::max<int64_t>(0, duration - (covered - child_excluded));
  }
  return self;
}

double TraceSummary::MeanMs(const std::string& name) const {
  auto it = by_name.find(name);
  if (it == by_name.end() || it->second.calls == 0) return 0;
  return static_cast<double>(it->second.self_ns) / 1e6 /
         static_cast<double>(it->second.calls);
}

uint64_t TraceSummary::Calls(const std::string& name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second.calls;
}

double TraceSummary::Share(const std::string& layer) const {
  auto it = by_layer.find(layer);
  if (it == by_layer.end() || wall_ns <= 0) return 0;
  return static_cast<double>(it->second) / static_cast<double>(wall_ns);
}

ThreadTrace* Tracer::NewThread() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<ThreadTrace>());
  return threads_.back().get();
}

TraceSummary Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  TraceSummary out;
  for (const std::unique_ptr<ThreadTrace>& t : threads_) {
    const std::vector<SpanRecord>& spans = t->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      NameTotals& n = out.by_name[name];
      ++n.calls;
      n.self_ns += self[i];
      out.by_layer[name.substr(0, name.find('.'))] += self[i];
      if (spans[i].parent < 0) {
        out.wall_ns +=
            spans[i].end_ns - spans[i].start_ns - spans[i].excluded_ns;
        ++out.requests;
      }
    }
    out.counters.Add(t->counters());
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "thread\trequest\tname\tstart_ns\tend_ns\texcluded_ns\tparent\t"
               "self_ns\n");
  for (size_t t = 0; t < threads_.size(); ++t) {
    const std::vector<SpanRecord>& spans = threads_[t]->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f, "%zu\t%llu\t%s\t%lld\t%lld\t%lld\t%d\t%lld\n", t,
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.excluded_ns), s.parent,
                   static_cast<long long>(self[i]));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace lake_e2e
