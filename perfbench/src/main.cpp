// tbwf_perf <workload> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//
// Runs one workload and prints JSON records (common.hpp). run.py starts
// one such process per workload, so an abort in one cannot take the
// others down.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tbwf_perf degrade_sim|churn_sim|contend_rt|explore "
               "[--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  perfbench::Args args;
  args.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--seed") == 0) {
      args.seed = std::strtoull(val, &end, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      args.seconds = std::strtod(val, &end);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) return usage();
    } else if (std::strcmp(key, "--trace") == 0) {
      args.trace = std::strcmp(val, "1") == 0;
      end = const_cast<char*>(val) + std::strlen(val);
    } else if (std::strcmp(key, "--out") == 0) {
      args.out_dir = val;
      end = const_cast<char*>(val) + std::strlen(val);
    } else {
      return usage();
    }
    if (end == val || *end != '\0') return usage();
  }
  if ((argc - 2) % 2 != 0) return usage();

  if (args.workload == "degrade_sim") return perfbench::run_degrade_sim(args);
  if (args.workload == "churn_sim") return perfbench::run_churn_sim(args);
  if (args.workload == "contend_rt") return perfbench::run_contend_rt(args);
  if (args.workload == "explore") return perfbench::run_explore(args);
  return usage();
}
