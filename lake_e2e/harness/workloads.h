#ifndef LAKE_E2E_HARNESS_WORKLOADS_H_
#define LAKE_E2E_HARNESS_WORKLOADS_H_

#include <cstddef>
#include <string_view>

#include "harness/report.h"

namespace lake_e2e {

/// Fixed load of each workload: closed-loop client threads and operator
/// pool workers. Fixed here, never read from the host; main() refuses to
/// run when their sum exceeds the host's cores.
struct LoadShape {
  const char* workload;
  size_t clients;
  size_t pool_workers;
};
inline constexpr LoadShape kLoads[] = {
    {"lake_build", 1, 2}, {"query_warm", 1, 2}, {"query_refresh", 1, 2}};

/// The load of `workload`; nullptr for an unknown name.
constexpr const LoadShape* FindLoad(std::string_view workload) {
  for (const LoadShape& l : kLoads) {
    if (workload == l.workload) return &l;
  }
  return nullptr;
}

/// Cold build of a DLBench-shaped lake from raw bytes, then a fixed
/// discovery mix checked against the planted ground truth.
RunResult RunLakeBuild(const RunConfig& cfg);

/// Read-only closed-loop SQL mix over three warm sources.
RunResult RunQueryWarm(const RunConfig& cfg);

/// One client landing a new version of the object-tier source before each
/// query, so every scan of it misses the cache.
RunResult RunQueryRefresh(const RunConfig& cfg);

}  // namespace lake_e2e

#endif  // LAKE_E2E_HARNESS_WORKLOADS_H_
