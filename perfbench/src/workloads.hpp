// The four benchmark workloads (see perfbench/NOTES.md for why each was
// chosen). Each runs for Args::seconds, emits its records and returns
// the process exit code.
#pragma once

#include "common.hpp"

namespace perfbench {

int run_degrade_sim(const Args& args);
int run_churn_sim(const Args& args);
int run_contend_rt(const Args& args);
int run_explore(const Args& args);

}  // namespace perfbench
