#ifndef LAKE_E2E_HARNESS_STATS_H_
#define LAKE_E2E_HARNESS_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lake_e2e {

/// The sample rule every timing in this benchmark follows: a timing is
/// reported as its median plus the highest percentile that still has at
/// least `kTailSamples` samples beyond it, next to the sample count.
inline constexpr size_t kTailSamples = 10;

/// Nearest-rank quantile of `samples` (sorted or not): the smallest sample
/// with at least `q` of the samples at or below it. `q` in (0, 1]; 0 for an
/// empty input.
double Quantile(std::vector<double> samples, double q);

/// Whether percentile `q` leaves at least kTailSamples samples beyond it
/// when taken over `n` samples under the nearest-rank rule.
bool TailSupported(size_t n, double q);

/// Median and highest supported percentile of one timing.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  /// The highest percentile of {0.999, 0.99, 0.95, 0.9, 0.75} with
  /// kTailSamples samples beyond it; 0 when even p75 is unsupported.
  double tail_q = 0;
  double tail = 0;
};

Summary Summarize(const std::vector<double>& samples);

/// "p50 1.234 ms, p99 5.678 ms (n=1234)".
std::string FormatSummary(const Summary& s, const std::string& unit);

/// Median of a handful of values (set-up repetitions, per-build figures).
double Median(std::vector<double> values);

/// One latency sample and when it completed.
struct TimedSample {
  int64_t end_ns = 0;
  double value = 0;
};

/// Quantile `q` of each `window_ns` window of completion time, averaged over
/// the windows where the sample rule supports it (TailSupported); the
/// quantile pooled over all samples when no window does. The host the
/// benchmark was tuned on alternates between fast and slow phases lasting
/// seconds; a quantile pooled over a run jumps between the two, while this
/// moves with the share of the run each phase took.
double WindowedQuantile(const std::vector<TimedSample>& samples,
                        int64_t window_ns, double q);

}  // namespace lake_e2e

#endif  // LAKE_E2E_HARNESS_STATS_H_
