// Mutation-testing proof for the verify stack: each planted protocol
// fault must be CAUGHT -- by an oracle VIOLATION or a conformance
// failure -- with a replayable counterexample, and the unmutated stack
// must stay clean under the same bounds.
//
//   1. QaMutations::drop_decide_fence skips QaUniversal's step-5
//      validation read: two rounds can decide different values at one
//      slot (a lost update). The schedule explorer must find a
//      non-linearizable interleaving and minimize it.
//   2. OmegaRegisters freeze-leader pins each process's announced
//      LEADER after its first announcement: when the announced leader
//      crashes, survivors wait on a dead process forever -- a
//      wait-freedom conformance violation.
//   3. OmegaRegisters torn-counter-write makes punishment writes store
//      the old counter value (the write's intent is torn off):
//      leadership oscillates forever under a repeated candidate, where
//      the intact protocol quiesces.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/conformance.hpp"
#include "core/tbwf_object.hpp"
#include "omega/candidate_drivers.hpp"
#include "omega/omega_registers.hpp"
#include "qa/sequential_type.hpp"
#include "sim/faultplan.hpp"
#include "sim/schedule.hpp"
#include "sim/trajectory.hpp"
#include "sim/world.hpp"
#include "verify/artifact.hpp"
#include "verify/explorer.hpp"
#include "verify/qa_harness.hpp"

namespace tbwf::verify {
namespace {

using qa::Counter;
using sim::Pid;
using sim::SimEnv;
using sim::Step;
using sim::Task;
using sim::World;

// -- mutant 1: dropped decide fence in the QA universal -----------------------

QaExploreConfig<Counter> fence_config(bool drop_fence) {
  auto config = counter_explore_config(2, 1);
  config.mutations.drop_decide_fence = drop_fence;
  return config;
}

ExplorerOptions fence_bounds(const char* name) {
  ExplorerOptions opt;
  opt.name = name;
  opt.max_depth = 220;
  opt.max_runs = 60000;
  return opt;
}

TEST(MutationDropFence, ExplorerFindsTheLostUpdate) {
  Explorer explorer(make_qa_run_factory(fence_config(true)),
                    fence_bounds("drop-decide-fence"));
  const ExploreResult result = explorer.explore();
  // Search pin: exact ExploreStats of this configuration. They move only
  // if the explorer's search itself changes (docs/VERIFY.md).
  EXPECT_EQ(result.stats.summary(),
            "runs=8 steps=186 distinct_states=49 sleep_skips=9 "
            "preemption_skips=0 state_prunes=3");
  EXPECT_EQ(result.artifact.schedule.size(), 12u);
  EXPECT_EQ(result.artifact.trace_digest, 0x5ebee6f881ff4489ull);
  ASSERT_TRUE(result.violation_found) << result.summary();
  EXPECT_NE(result.artifact.violation.find("VIOLATION"), std::string::npos);
  EXPECT_FALSE(result.artifact.schedule.empty());
  // Minimization keeps the witness small enough to read.
  EXPECT_LE(result.artifact.schedule.size(), 40u) << result.summary();

  // The artifact replays: the scripted prefix reproduces the exact
  // violation and the exact trace.
  auto factory = make_qa_run_factory(fence_config(true));
  auto run = factory(
      std::make_unique<sim::ScriptedSchedule>(result.artifact.schedule));
  run->world().run(static_cast<Step>(result.artifact.schedule.size()));
  EXPECT_FALSE(run->check().empty());
  EXPECT_EQ(run->world().trace().digest(), result.artifact.trace_digest);

  // ...and survives a save/load round trip.
  const std::string path = ::testing::TempDir() + "drop_fence_cex.txt";
  ASSERT_TRUE(result.artifact.save(path));
  const auto loaded = CounterexampleArtifact::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->schedule, result.artifact.schedule);
  EXPECT_EQ(loaded->trace_digest, result.artifact.trace_digest);
  EXPECT_EQ(loaded->n, 2);
  std::remove(path.c_str());
}

TEST(MutationDropFence, UnmutatedStackIsCleanAtTheSameBounds) {
  Explorer explorer(make_qa_run_factory(fence_config(false)),
                    fence_bounds("decide-fence-intact"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=522 steps=10875 distinct_states=1304 sleep_skips=389 "
            "preemption_skips=0 state_prunes=348");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean()) << result.summary();
}

// -- mutant 2: stale-leader Omega-Delta ---------------------------------------

core::ConformanceReport freeze_leader_run(bool freeze) {
  const int n = 3;
  sim::FaultPlan plan;
  plan.crash(0, 60000);  // p0 wins the initial (counter, pid) tie-break
  World world(n, plan.wrap(std::make_unique<sim::RandomSchedule>(991)));
  omega::OmegaRegisters om(world);
  om.set_mutation_freeze_leader(freeze);
  om.install_all();
  core::TbwfObject<Counter> obj(
      world, 0, [&](Pid p) -> omega::OmegaIO& { return om.io(p); });
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "w", [&](SimEnv& env) -> Task {
      for (;;) (void)co_await obj.invoke(env, Counter::Op{1});
    });
  }
  plan.install(world);
  world.run(500000);

  core::ConformanceOptions copt;
  copt.timely_bound = 64;
  copt.stabilization = 150000;
  copt.max_completion_gap = 150000;
  copt.min_suffix = 200000;
  return core::check_chaos_conformance(world.trace(), obj.log(), plan,
                                       {1, 2}, copt);
}

TEST(MutationFreezeLeader, SurvivorsStarveOnTheDeadLeader) {
  const auto report = freeze_leader_run(true);
  ASSERT_FALSE(report.ok) << report.summary();
  bool wait_freedom_violated = false;
  for (const std::string& v : report.violations) {
    if (v.find("wait-freedom") != std::string::npos) {
      wait_freedom_violated = true;
    }
  }
  EXPECT_TRUE(wait_freedom_violated) << report.summary();

  // The graded report carries the progress failure even when no oracle
  // ran on this run.
  const auto graded = core::grade_run(report, core::SafetySummary{});
  EXPECT_FALSE(graded.ok());
}

TEST(MutationFreezeLeader, IntactOmegaPassesTheSameScenario) {
  const auto report = freeze_leader_run(false);
  EXPECT_TRUE(report.ok) << report.summary();
}

// -- mutant 3: torn counter write ---------------------------------------------

std::size_t late_churn(bool torn, Step total, Step window) {
  const int n = 2;
  auto specs = sim::uniform_specs(n, sim::ActivitySpec::timely(4 * n));
  World world(n, std::make_unique<sim::TimelinessSchedule>(specs, 23));
  omega::OmegaRegisters om(world);
  om.set_mutation_torn_counter_write(torn);
  om.install_all();
  world.spawn(0, "r", [&](SimEnv& env) {
    return omega::repeated_candidate(env, om.io(0), 8000, 8000);
  });
  world.spawn(1, "p", [&](SimEnv& env) {
    return omega::permanent_candidate(env, om.io(1));
  });
  sim::Trajectory<Pid> leader1;
  leader1.sample(0, om.io(1).leader);
  leader1.attach(world, &om.io(1).leader);
  world.run(total);
  return leader1.changes_in(total - window, total);
}

TEST(MutationTornCounterWrite, LeadershipOscillatesForever) {
  // Punishment writes that store the old value never raise any counter,
  // so the repeated candidate r (smallest (counter, pid)) steals the
  // leadership back on every rejoin -- the oscillation Figure 3's
  // self-punishment exists to kill.
  EXPECT_GE(late_churn(true, 4000000, 1000000), 10u);
}

TEST(MutationTornCounterWrite, IntactWritesQuiesce) {
  EXPECT_EQ(late_churn(false, 4000000, 1000000), 0u);
}

}  // namespace
}  // namespace tbwf::verify
