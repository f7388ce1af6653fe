#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace lake_e2e {

namespace {

/// 1-based nearest rank of quantile `q` over `n` samples.
size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const size_t idx = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

bool TailSupported(size_t n, double q) {
  if (n == 0) return false;
  return n - NearestRank(n, q) >= kTailSamples;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = Quantile(samples, 0.5);
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (TailSupported(s.n, q)) {
      s.tail_q = q;
      s.tail = Quantile(samples, q);
      break;
    }
  }
  return s;
}

std::string FormatSummary(const Summary& s, const std::string& unit) {
  char buf[160];
  if (s.tail_q > 0) {
    std::snprintf(buf, sizeof(buf), "p50 %.4f %s, p%g %.4f %s (n=%zu)", s.p50,
                  unit.c_str(), s.tail_q * 100, s.tail, unit.c_str(), s.n);
  } else {
    std::snprintf(buf, sizeof(buf), "p50 %.4f %s (n=%zu, too few for a tail)",
                  s.p50, unit.c_str(), s.n);
  }
  return buf;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double WindowedQuantile(const std::vector<TimedSample>& samples,
                        int64_t window_ns, double q) {
  if (samples.empty() || window_ns <= 0) return 0;
  int64_t first = samples.front().end_ns;
  for (const TimedSample& s : samples) first = std::min(first, s.end_ns);
  std::map<int64_t, std::vector<double>> windows;
  std::vector<double> all;
  for (const TimedSample& s : samples) {
    windows[(s.end_ns - first) / window_ns].push_back(s.value);
    all.push_back(s.value);
  }
  double sum = 0;
  size_t counted = 0;
  for (auto& [w, values] : windows) {
    if (!TailSupported(values.size(), q)) continue;
    sum += Quantile(std::move(values), q);
    ++counted;
  }
  if (counted == 0) return Quantile(std::move(all), q);
  return sum / static_cast<double>(counted);
}

}  // namespace lake_e2e
