// Schedule-explorer tests on the UNMUTATED QA counter stack: bounded
// exhaustive exploration comes back clean (every interleaving
// linearizable), the partial-order reductions demonstrably cut the
// tree, exploration is deterministic, and the PR-sized n=3 bounds from
// the issue are met.
#include <gtest/gtest.h>

#include <memory>

#include "qa/sequential_type.hpp"
#include "sim/schedule.hpp"
#include "verify/explorer.hpp"
#include "verify/qa_harness.hpp"

namespace tbwf::verify {
namespace {

using qa::Counter;

TEST(Explorer, SoloWorkloadExhaustsQuickly) {
  // p1 issues nothing: beyond its single task-exit step there is no
  // concurrency, so the bounded space collapses to a handful of runs.
  QaExploreConfig<Counter> config;
  config.n = 2;
  config.ops = {{Counter::Op{1}}, {}};
  ExplorerOptions opt;
  opt.max_depth = 200;
  Explorer explorer(make_qa_run_factory(config), opt);
  const ExploreResult result = explorer.explore();
  // Search pin: exact ExploreStats of this configuration. They move only
  // if the explorer's search itself changes (docs/VERIFY.md).
  EXPECT_EQ(result.stats.summary(),
            "runs=8 steps=36 distinct_states=16 sleep_skips=7 "
            "preemption_skips=0 state_prunes=0");
  EXPECT_TRUE(result.clean()) << result.summary();
  EXPECT_FALSE(result.violation_found);
  EXPECT_LT(result.stats.runs, 50u) << result.stats.summary();
}

TEST(Explorer, UnmutatedCounterStackN2IsClean) {
  // Full bounded exploration of two concurrent increments through the
  // whole QA protocol. Every leaf is graded by the oracle; the real
  // protocol must survive all of them.
  ExplorerOptions opt;
  opt.name = "counter-n2";
  opt.max_depth = 220;
  opt.max_runs = 60000;
  Explorer explorer(make_qa_run_factory(counter_explore_config(2, 1)), opt);
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=522 steps=10875 distinct_states=1304 sleep_skips=389 "
            "preemption_skips=0 state_prunes=348");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_GT(result.stats.sleep_skips + result.stats.state_prunes, 0u)
      << "reductions never fired: " << result.stats.summary();
}

TEST(Explorer, SleepSetsReduceTheTree) {
  QaExploreConfig<Counter> config;
  config.n = 2;
  config.ops = {{Counter::Op{1}}, {}};
  ExplorerOptions with;
  with.max_depth = 120;
  with.max_runs = 20000;
  ExplorerOptions without = with;
  without.sleep_sets = false;
  without.state_pruning = false;

  Explorer reduced(make_qa_run_factory(config), with);
  Explorer naive(make_qa_run_factory(config), without);
  const ExploreResult r = reduced.explore();
  EXPECT_EQ(r.stats.summary(),
            "runs=8 steps=36 distinct_states=16 sleep_skips=7 "
            "preemption_skips=0 state_prunes=0");
  const ExploreResult n = naive.explore();
  EXPECT_EQ(n.stats.summary(),
            "runs=8 steps=64 distinct_states=0 sleep_skips=0 "
            "preemption_skips=0 state_prunes=0");
  EXPECT_FALSE(r.violation_found) << r.summary();
  EXPECT_FALSE(n.violation_found) << n.summary();
  EXPECT_LE(r.stats.runs, n.stats.runs)
      << "reduced: " << r.stats.summary()
      << "\nnaive: " << n.stats.summary();
}

TEST(Explorer, ExplorationIsDeterministic) {
  ExplorerOptions opt;
  opt.max_depth = 160;
  opt.max_runs = 2000;
  const auto run_once = [&] {
    Explorer explorer(make_qa_run_factory(counter_explore_config(2, 1)),
                      opt);
    return explorer.explore();
  };
  const ExploreResult a = run_once();
  const ExploreResult b = run_once();
  EXPECT_EQ(a.stats.summary(),
            "runs=522 steps=10875 distinct_states=1304 sleep_skips=389 "
            "preemption_skips=0 state_prunes=348");
  EXPECT_EQ(a.violation_found, b.violation_found);
  EXPECT_EQ(a.stats.runs, b.stats.runs);
  EXPECT_EQ(a.stats.steps, b.stats.steps);
  EXPECT_EQ(a.stats.sleep_skips, b.stats.sleep_skips);
  EXPECT_EQ(a.stats.state_prunes, b.stats.state_prunes);
  EXPECT_EQ(a.stats.distinct_states, b.stats.distinct_states);
}

TEST(Explorer, PreemptionBoundCutsChoices) {
  ExplorerOptions opt;
  opt.max_depth = 160;
  opt.max_runs = 5000;
  opt.max_preemptions = 2;
  Explorer explorer(make_qa_run_factory(counter_explore_config(2, 1)), opt);
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=29 steps=509 distinct_states=271 sleep_skips=37 "
            "preemption_skips=79 state_prunes=8");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_GT(result.stats.preemption_skips, 0u) << result.stats.summary();
}

TEST(Explorer, MeetsIssueBoundsAtN3) {
  // The issue's acceptance bar: n = 3 at PR-sized bounds visits >= 10^4
  // distinct schedules (or exhausts the reduced space early, which is
  // stronger) with no violation, in well under a minute.
  ExplorerOptions opt;
  opt.name = "counter-n3";
  opt.max_depth = 400;
  opt.max_runs = 12000;
  Explorer explorer(make_qa_run_factory(counter_explore_config(3, 1)), opt);
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=12000 steps=585632 distinct_states=20640 sleep_skips=17526 "
            "preemption_skips=0 state_prunes=9626 (run budget exhausted)");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.stats.runs >= 10000 || result.clean())
      << result.summary();
  // Reduction effectiveness is part of the report.
  EXPECT_GT(result.stats.sleep_skips + result.stats.state_prunes, 0u)
      << result.stats.summary();
}

}  // namespace
}  // namespace tbwf::verify
