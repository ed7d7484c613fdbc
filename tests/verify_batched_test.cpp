// Verify-stack coverage for the batched throughput engine: the
// Wing-Gong oracle judges batched histories in terms of the INNER type
// (batching must be invisible to clients), the bounded-DFS explorer
// drives the combiner seam clean at the same bounds as the unbatched
// construction, and the planted drop-from-batch mutation (a combiner
// credits an op it never applied) is provably caught.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "sim/schedule.hpp"
#include "verify/explorer.hpp"
#include "verify/qa_batched_harness.hpp"

namespace tbwf::verify {
namespace {

using qa::Counter;
using sim::Step;

// -- oracle: random batched runs are linearizable -----------------------------

TEST(LinOracleBatched, RandomAtomicRunsAreLinearizable) {
  auto config = batched_counter_explore_config(3, 2);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    config.world_seed = seed;
    auto factory = make_qa_batched_run_factory(config);
    auto run = factory(std::make_unique<sim::RandomSchedule>(seed * 131 + 5));
    run->world().run(200000);
    EXPECT_EQ(run->check(), "") << "seed " << seed << "\n" << run->describe();
  }
}

TEST(LinOracleBatched, RandomAbortableRunsAreLinearizable) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    registers::ProbabilisticAbortPolicy policy(seed, 0.4, 0.4, 0.5);
    QaBatchedExploreConfig<Counter, qa::AbortableBase> config;
    config.n = 2;
    config.world_seed = seed;
    config.engine.patience = 2;
    config.ops = {{Counter::Op{1}, Counter::Op{2}},
                  {Counter::Op{4}, Counter::Op{8}}};
    config.policy = &policy;
    auto factory = make_qa_batched_run_factory(config);
    auto run = factory(std::make_unique<sim::RandomSchedule>(seed * 977 + 13));
    run->world().run(400000);
    EXPECT_EQ(run->check(), "") << "seed " << seed << "\n" << run->describe();
  }
}

// -- explorer: the combiner seam is clean at bounded-DFS bounds ---------------

ExplorerOptions batched_bounds(const char* name) {
  ExplorerOptions opt;
  opt.name = name;
  opt.max_depth = 300;
  opt.max_runs = 60000;
  return opt;
}

TEST(ExplorerBatched, BoundedDfsFindsNoViolation) {
  Explorer explorer(
      make_qa_batched_run_factory(batched_counter_explore_config(2, 1)),
      batched_bounds("batched-clean"));
  const ExploreResult result = explorer.explore();
  // Search pin: exact ExploreStats of this configuration. They move only
  // if the explorer's search itself changes (docs/VERIFY.md).
  EXPECT_EQ(result.stats.summary(),
            "runs=14014 steps=716404 distinct_states=30029 sleep_skips=10016 "
            "preemption_skips=0 state_prunes=9640");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean()) << result.summary();
  EXPECT_GT(result.stats.runs, 100u);
}

// -- mutation: a combiner that credits-without-applying is caught -------------

TEST(MutationBatched, DropFromBatchIsCaughtAndReplays) {
  auto config = batched_counter_explore_config(2, 1);
  config.mutations.drop_from_batch = true;
  Explorer explorer(make_qa_batched_run_factory(config),
                    batched_bounds("drop-from-batch"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=35 steps=1323 distinct_states=159 sleep_skips=45 "
            "preemption_skips=0 state_prunes=22");
  EXPECT_EQ(result.artifact.schedule.size(), 29u);
  EXPECT_EQ(result.artifact.trace_digest, 0x2ace39e14b32ac59ull);
  ASSERT_TRUE(result.violation_found) << result.summary();
  EXPECT_NE(result.artifact.violation.find("VIOLATION"), std::string::npos);
  ASSERT_FALSE(result.artifact.schedule.empty());

  // The counterexample replays: the scripted prefix reproduces the
  // non-linearizable history and the exact trace digest.
  auto factory = make_qa_batched_run_factory(config);
  auto run = factory(
      std::make_unique<sim::ScriptedSchedule>(result.artifact.schedule));
  run->world().run(static_cast<Step>(result.artifact.schedule.size()));
  EXPECT_FALSE(run->check().empty());
  EXPECT_EQ(run->world().trace().digest(), result.artifact.trace_digest);
}

TEST(MutationBatched, UnmutatedEngineIsCleanAtTheSameBounds) {
  Explorer explorer(
      make_qa_batched_run_factory(batched_counter_explore_config(2, 1)),
      batched_bounds("batched-intact"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=14014 steps=716404 distinct_states=30029 sleep_skips=10016 "
            "preemption_skips=0 state_prunes=9640");
  EXPECT_FALSE(result.violation_found) << result.summary();
}

// -- producer lanes: one process with two ops in flight ---------------------

// n = 2 with 3 lanes: process 0 owns lanes 0 and 2 and stages an op on
// each (announce, announce, collect, collect); process 1 uses its own
// lane. The lanes reach the explored coroutine only through announce()
// and collect(), so this is their explorer coverage. collect() waits
// until its op is applied, and two combiners can abort each other's
// slot rounds for as long as the schedule alternates them, so an
// unbounded search never completes (the DFS fills max_depth with such
// duels). Bounding preemptions at 10 makes it complete.
QaBatchedExploreConfig<Counter> lanes_explore_config() {
  auto config = batched_counter_explore_config(2, 1);
  config.engine.lanes = 3;
  config.ops[0].push_back(Counter::Op{4});
  return config;
}

ExplorerOptions lanes_bounds(const char* name) {
  ExplorerOptions opt = batched_bounds(name);
  opt.max_preemptions = 10;
  return opt;
}

TEST(ExplorerBatched, LanesBoundedDfsFindsNoViolation) {
  Explorer explorer(make_qa_batched_run_factory(lanes_explore_config()),
                    lanes_bounds("batched-lanes-clean"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=21560 steps=1528482 distinct_states=89647 "
            "sleep_skips=21879 preemption_skips=26261 state_prunes=13353");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean()) << result.summary();
}

TEST(MutationBatched, DropFromBatchIsCaughtWithLanes) {
  auto config = lanes_explore_config();
  config.mutations.drop_from_batch = true;
  Explorer explorer(make_qa_batched_run_factory(config),
                    lanes_bounds("drop-from-batch-lanes"));
  const ExploreResult result = explorer.explore();
  // Caught on the first schedule: process 0's own second lane is the
  // drained item the mutant drops.
  EXPECT_EQ(result.stats.summary(),
            "runs=1 steps=149 distinct_states=30 sleep_skips=0 "
            "preemption_skips=0 state_prunes=0");
  EXPECT_EQ(result.artifact.schedule.size(), 15u);
  EXPECT_EQ(result.artifact.trace_digest, 0x6ecaed4a7e98806aull);
  ASSERT_TRUE(result.violation_found) << result.summary();
  EXPECT_NE(result.artifact.violation.find("VIOLATION"), std::string::npos);

  auto factory = make_qa_batched_run_factory(config);
  auto run = factory(
      std::make_unique<sim::ScriptedSchedule>(result.artifact.schedule));
  run->world().run(static_cast<Step>(result.artifact.schedule.size()));
  EXPECT_FALSE(run->check().empty());
  EXPECT_EQ(run->world().trace().digest(), result.artifact.trace_digest);
}

}  // namespace
}  // namespace tbwf::verify
