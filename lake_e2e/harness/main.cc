// lake_e2e driver: runs one workload and prints its report, then one JSON
// result line. Normally started through run.py, which builds it first:
//
//   lake_e2e --workload query_warm --seed 1 --seconds 20 --trace 0
//            --lake-dir <fresh dir> [--trace-out spans.tsv] [--git-sha sha]

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/report.h"
#include "harness/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "lake_e2e: %s\nusage: lake_e2e --workload "
               "lake_build|query_warm|query_refresh --seed N --seconds S "
               "--trace 0|1 --lake-dir DIR [--trace-out FILE] [--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  lake_e2e::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--lake-dir") {
      cfg.lake_dir = value;
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else if (flag == "--git-sha") {
      cfg.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (cfg.lake_dir.empty()) return Usage("--lake-dir is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");

  const lake_e2e::LoadShape* load = lake_e2e::FindLoad(cfg.workload);
  if (load == nullptr) return Usage("unknown workload");
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc > 0 &&
      load->clients + load->pool_workers > static_cast<size_t>(nproc)) {
    std::fprintf(stderr,
                 "lake_e2e: %s needs %zu client threads + %zu pool workers, "
                 "more than the %ld cores here; refusing to run\n",
                 load->workload, load->clients, load->pool_workers, nproc);
    return 3;
  }
  // The process default pool (discovery index builds) gets the fixed
  // worker count; set before anything can create it.
  setenv("LAKEKIT_THREADS", std::to_string(load->pool_workers).c_str(), 1);
  // Fixed allocator thresholds. By default glibc moves its mmap threshold
  // and trims the top of the heap depending on the allocation history, so a
  // decode-heavy run flips, from one run to the next, between reusing freed
  // pages and faulting them in again on every query.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);

  lake_e2e::RunResult r;
  if (cfg.workload == "lake_build") {
    r = lake_e2e::RunLakeBuild(cfg);
  } else if (cfg.workload == "query_warm") {
    r = lake_e2e::RunQueryWarm(cfg);
  } else {
    r = lake_e2e::RunQueryRefresh(cfg);
  }
  std::printf("== lake_e2e %s (seed %llu, %s) ==\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? "traced" : "untraced");
  for (const std::string& line : r.report) std::printf("%s\n", line.c_str());
  std::printf("stamp: %s\n", lake_e2e::Stamp(cfg, r).c_str());
  std::fflush(stdout);
  if (!r.correct) {
    std::fprintf(stderr, "lake_e2e: %s: answer check failed: %s\n",
                 cfg.workload.c_str(), r.error.c_str());
    return 1;
  }
  std::printf("%s\n", lake_e2e::ResultJson(r).c_str());
  return 0;
}
