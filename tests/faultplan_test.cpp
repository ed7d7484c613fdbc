// Tests of the fault-plan subsystem: plan builders and generation,
// deterministic crash/restart application, World::restart semantics,
// the ChaosSchedule stutter decorator, and the PhasedAbortPolicy.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "registers/abort_policy.hpp"
#include "sim/chaos_schedule.hpp"
#include "sim/env.hpp"
#include "sim/faultplan.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"

namespace tbwf::sim {
namespace {

using I64 = std::int64_t;

Task bump_forever(SimEnv& env, int& counter) {
  for (;;) {
    ++counter;
    co_await env.yield();
  }
}

// -- plan builders and introspection ------------------------------------------

TEST(FaultPlan, BuildersAndIntrospection) {
  FaultPlan plan(42);
  plan.crash(0, 100)
      .restart(0, 200)
      .stutter(1, 50, 250, 10)
      .abort_storm("qa", 120, 180, 0.9);
  EXPECT_EQ(plan.seed(), 42u);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.crashes().size(), 1u);
  EXPECT_EQ(plan.restarts().size(), 1u);
  EXPECT_EQ(plan.stutters().size(), 1u);
  EXPECT_EQ(plan.storms().size(), 1u);
  EXPECT_EQ(plan.last_event_step(), 250u);  // stutter end is latest
  EXPECT_FALSE(plan.crashed_at_end(0));     // restarted after its crash
  EXPECT_FALSE(plan.crashed_at_end(1));
  EXPECT_NE(plan.summary().find("seed=42"), std::string::npos);
}

TEST(FaultPlan, CrashedAtEndFollowsEventOrder) {
  FaultPlan plan;
  plan.crash(0, 100);
  EXPECT_TRUE(plan.crashed_at_end(0));
  plan.restart(0, 300);
  EXPECT_FALSE(plan.crashed_at_end(0));
  plan.crash(0, 500);
  EXPECT_TRUE(plan.crashed_at_end(0));
  // Same-step crash + restart: the world applies the crash first, so the
  // process ends up alive.
  FaultPlan plan2;
  plan2.restart(1, 50).crash(1, 50);
  EXPECT_FALSE(plan2.crashed_at_end(1));
}

TEST(FaultPlan, PhaseBoundariesSortedDeduplicated) {
  FaultPlan plan;
  plan.crash(0, 100).restart(0, 300).stutter(1, 100, 400, 10);
  const auto edges = plan.phase_boundaries(1000);
  EXPECT_EQ(edges, (std::vector<Step>{0, 100, 300, 400, 1000}));
  // Edges at or past run_end are dropped.
  const auto clipped = plan.phase_boundaries(350);
  EXPECT_EQ(clipped, (std::vector<Step>{0, 100, 300, 350}));
}

// -- random generation --------------------------------------------------------

TEST(FaultPlan, GenerateIsDeterministic) {
  FaultPlan::GenOptions opt;
  opt.n = 4;
  opt.horizon = 100000;
  bool any_difference = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto a = FaultPlan::generate(seed, opt);
    const auto b = FaultPlan::generate(seed, opt);
    EXPECT_EQ(a.summary(), b.summary()) << "seed " << seed;
    if (a.summary() != FaultPlan::generate(seed + 1, opt).summary()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference) << "all seeds generated the same plan";
}

TEST(FaultPlan, GenerateRespectsQuietTailAndKeepsASurvivor) {
  FaultPlan::GenOptions opt;
  opt.n = 3;
  opt.horizon = 200000;
  opt.quiet_tail = 0.4;
  opt.max_crash_cycles = 3;
  opt.p_restart = 0.2;  // most crashes are permanent
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto plan = FaultPlan::generate(seed, opt);
    EXPECT_FALSE(plan.empty()) << "seed " << seed;
    EXPECT_LE(plan.last_event_step(),
              static_cast<Step>(opt.horizon * (1.0 - opt.quiet_tail)))
        << "seed " << seed;
    int survivors = 0;
    for (Pid p = 0; p < opt.n; ++p) {
      if (!plan.crashed_at_end(p)) ++survivors;
    }
    EXPECT_GE(survivors, 1) << "seed " << seed << "\n" << plan.summary();
  }
}

// -- plan application on a world ----------------------------------------------

TEST(FaultPlan, InstallAppliesCrashesAndRestarts) {
  auto w = std::make_unique<World>(2,
                                   std::make_unique<RoundRobinSchedule>());
  int a = 0, b = 0;
  w->spawn(0, "a", [&a](SimEnv& env) { return bump_forever(env, a); });
  w->spawn(1, "b", [&b](SimEnv& env) { return bump_forever(env, b); });
  FaultPlan plan(7);
  plan.crash(0, 10).restart(0, 30);
  plan.install(*w);
  w->run(100);
  EXPECT_FALSE(w->crashed(0));
  EXPECT_EQ(w->trace().crash_count(0), 1u);
  EXPECT_EQ(w->trace().restart_count(0), 1u);
  ASSERT_EQ(w->trace().fault_log().size(), 2u);
  EXPECT_EQ(w->trace().fault_log()[0].at, 10u);
  EXPECT_FALSE(w->trace().fault_log()[0].restart);
  EXPECT_EQ(w->trace().fault_log()[1].at, 30u);
  EXPECT_TRUE(w->trace().fault_log()[1].restart);
  // p0 took no steps while down: the gap spans the outage.
  EXPECT_GE(w->trace().max_gap_in(0, 10, 30), 19u);
  EXPECT_EQ(w->counters().get("world.crashes"), 1u);
  EXPECT_EQ(w->counters().get("world.restarts"), 1u);
}

// -- World::restart semantics -------------------------------------------------

Task boot_counter(SimEnv& env, int& boots, int& steps) {
  ++boots;  // runs once per (re)boot: fresh coroutine frame each time
  for (;;) {
    ++steps;
    co_await env.yield();
  }
}

TEST(World, RestartRebootsRootTasksWithFreshState) {
  auto w = std::make_unique<World>(1,
                                   std::make_unique<RoundRobinSchedule>());
  int boots = 0, steps = 0;
  w->spawn(0, "bc", [&](SimEnv& env) {
    return boot_counter(env, boots, steps);
  });
  w->run(10);
  EXPECT_EQ(boots, 1);
  w->crash(0);
  EXPECT_EQ(w->run(10), 0u);  // crashed: nothing runnable
  w->restart(0);
  EXPECT_FALSE(w->crashed(0));
  w->run(10);
  EXPECT_EQ(boots, 2);  // the root task was re-created from its recipe
  EXPECT_GT(steps, 10);
}

TEST(World, RestartOfAliveProcessIsNoOp) {
  auto w = std::make_unique<World>(1,
                                   std::make_unique<RoundRobinSchedule>());
  int boots = 0, steps = 0;
  w->spawn(0, "bc", [&](SimEnv& env) {
    return boot_counter(env, boots, steps);
  });
  w->run(5);
  w->restart(0);
  w->run(5);
  EXPECT_EQ(boots, 1);
  EXPECT_EQ(w->trace().restart_count(0), 0u);
}

Task write_then_read(SimEnv& env, AtomicReg<I64> reg, I64& out) {
  co_await env.write(reg, 41);
  out = co_await env.read(reg);
}

TEST(World, CrashMidOpThenRestartCompletesFromScratch) {
  // p0 crashes inside its write's operation interval, then restarts; the
  // rebooted task re-issues the write and finishes normally.
  auto w = std::make_unique<World>(
      2, std::make_unique<ScriptedSchedule>(std::vector<Pid>{0, 1},
                                            /*loop=*/true));
  auto reg = w->make_atomic<I64>("r", 0);
  I64 out = -1;
  int b = 0;
  w->spawn(0, "w", [&](SimEnv& env) { return write_then_read(env, reg, out); });
  w->spawn(1, "b", [&b](SimEnv& env) { return bump_forever(env, b); });
  w->schedule_crash(0, 1);    // after p0's invocation step
  w->schedule_restart(0, 9);
  w->run(40);
  EXPECT_FALSE(w->crashed(0));
  EXPECT_EQ(out, 41);
  EXPECT_EQ(w->peek(reg), 41);
}

// -- deterministic fault application order (regression) -----------------------

TEST(World, SameStepCrashesApplyInPidOrder) {
  // Scheduled out of pid order; the fault log must show pid order.
  auto w = std::make_unique<World>(3,
                                   std::make_unique<RoundRobinSchedule>());
  int a = 0, b = 0, c = 0;
  w->spawn(0, "a", [&a](SimEnv& env) { return bump_forever(env, a); });
  w->spawn(1, "b", [&b](SimEnv& env) { return bump_forever(env, b); });
  w->spawn(2, "c", [&c](SimEnv& env) { return bump_forever(env, c); });
  w->schedule_crash(2, 5);
  w->schedule_crash(0, 5);
  w->schedule_crash(1, 5);
  w->run(20);
  const auto& log = w->trace().fault_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].pid, 0);
  EXPECT_EQ(log[1].pid, 1);
  EXPECT_EQ(log[2].pid, 2);
  for (const auto& ev : log) EXPECT_EQ(ev.at, 5u);
}

TEST(World, SameStepCrashAppliesBeforeRestart) {
  auto w = std::make_unique<World>(1,
                                   std::make_unique<RoundRobinSchedule>());
  int boots = 0, steps = 0;
  w->spawn(0, "bc", [&](SimEnv& env) {
    return boot_counter(env, boots, steps);
  });
  // Scheduled restart-first; the crash still applies first, so the
  // process ends the step alive (and rebooted).
  w->schedule_restart(0, 5);
  w->schedule_crash(0, 5);
  w->run(20);
  EXPECT_FALSE(w->crashed(0));
  EXPECT_EQ(boots, 2);
  ASSERT_EQ(w->trace().fault_log().size(), 2u);
  EXPECT_FALSE(w->trace().fault_log()[0].restart);
  EXPECT_TRUE(w->trace().fault_log()[1].restart);
}

// -- ChaosSchedule ------------------------------------------------------------

TEST(ChaosSchedule, StutterWindowDegradesTimeliness) {
  std::vector<StutterPhase> stutters{{/*pid=*/0, /*from=*/200, /*to=*/700,
                                      /*period=*/50}};
  auto w = std::make_unique<World>(
      2, std::make_unique<ChaosSchedule>(
             std::make_unique<RoundRobinSchedule>(), stutters));
  int a = 0, b = 0;
  w->spawn(0, "a", [&a](SimEnv& env) { return bump_forever(env, a); });
  w->spawn(1, "b", [&b](SimEnv& env) { return bump_forever(env, b); });
  w->run(1000);
  const auto& t = w->trace();
  // Inside the window p0 is starved to at most one step per period.
  EXPECT_GE(t.max_gap_in(0, 200, 700), 49u);
  EXPECT_LE(t.steps_of_in(0, 200, 700), 11u);
  // Outside the window round-robin fairness resumes untouched.
  EXPECT_LE(t.max_gap_in(0, 700, 1000), 2u);
  EXPECT_LE(t.max_gap_in(0, 0, 200), 2u);
  EXPECT_LE(t.max_gap_in(1, 0, 1000), 50u);
}

TEST(ChaosSchedule, ReplayIsDeterministic) {
  const std::vector<StutterPhase> stutters{{0, 100, 400, 7},
                                           {1, 300, 600, 13}};
  auto run_once = [&] {
    auto w = std::make_unique<World>(
        3, std::make_unique<ChaosSchedule>(
               std::make_unique<RandomSchedule>(99), stutters));
    int a = 0, b = 0, c = 0;
    w->spawn(0, "a", [&a](SimEnv& env) { return bump_forever(env, a); });
    w->spawn(1, "b", [&b](SimEnv& env) { return bump_forever(env, b); });
    w->spawn(2, "c", [&c](SimEnv& env) { return bump_forever(env, c); });
    std::vector<Pid> owners;
    w->add_step_observer([&owners](Step, Pid p) { owners.push_back(p); });
    w->run(2000);
    return owners;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ChaosSchedule, TotalBlackoutStillAdvancesTime) {
  // The only process is blacked out for the entire window; time must
  // still advance one step per unit (the fallback grants it the step).
  std::vector<StutterPhase> stutters{{0, 1, 100, 1000}};
  auto w = std::make_unique<World>(
      1, std::make_unique<ChaosSchedule>(
             std::make_unique<RoundRobinSchedule>(), stutters));
  int a = 0;
  w->spawn(0, "a", [&a](SimEnv& env) { return bump_forever(env, a); });
  EXPECT_EQ(w->run(50), 50u);
  EXPECT_EQ(a, 50);
}

}  // namespace
}  // namespace tbwf::sim

// -- PhasedAbortPolicy --------------------------------------------------------

namespace tbwf::registers {
namespace {

OpContext ctx_at(sim::Step t, bool is_write) {
  OpContext ctx;
  ctx.pid = 0;
  ctx.is_write = is_write;
  ctx.invoked_at = t > 0 ? t - 1 : 0;
  ctx.responded_at = t;
  ctx.any_overlap_write = true;
  return ctx;
}

TEST(PhasedAbortPolicy, StormWindowEscalatesAborts) {
  PhasedAbortPolicy policy(5);
  policy.add_phase({/*from=*/100, /*to=*/200, /*rate=*/1.0,
                    /*p_effect=*/1.0});
  // Inside the window every contended op aborts (rate 1).
  EXPECT_EQ(policy.on_contended_read(ctx_at(150, false)),
            ReadOutcome::Abort);
  EXPECT_EQ(policy.on_contended_write(ctx_at(150, true)),
            WriteOutcome::AbortWithEffect);  // p_effect = 1
  EXPECT_EQ(policy.storm_aborts(), 2u);
  EXPECT_TRUE(policy.crashed_write_takes_effect(ctx_at(150, true)));
  // Outside the window, with no calm policy, contended ops succeed.
  EXPECT_EQ(policy.on_contended_read(ctx_at(99, false)),
            ReadOutcome::Success);
  EXPECT_EQ(policy.on_contended_write(ctx_at(200, true)),
            WriteOutcome::Success);
  EXPECT_FALSE(policy.crashed_write_takes_effect(ctx_at(300, true)));
  EXPECT_EQ(policy.storm_aborts(), 2u);
}

TEST(PhasedAbortPolicy, DelegatesToCalmPolicyOutsideWindows) {
  AlwaysAbortPolicy calm(AlwaysAbortPolicy::Effect::Never);
  PhasedAbortPolicy policy(5, &calm);
  policy.add_phase({100, 200, 1.0, 1.0});
  EXPECT_EQ(policy.on_contended_read(ctx_at(50, false)),
            ReadOutcome::Abort);  // calm AlwaysAbort rules when no storm
  EXPECT_EQ(policy.on_contended_write(ctx_at(50, true)),
            WriteOutcome::AbortNoEffect);
  EXPECT_EQ(policy.storm_aborts(), 0u);  // calm aborts are not storm aborts
}

TEST(PhasedAbortPolicy, ArmedFromPlanGroups) {
  sim::FaultPlan plan;
  plan.abort_storm("qa", 100, 200, 0.9);
  plan.abort_storm("", 300, 400, 0.8);  // matches every policy
  PhasedAbortPolicy qa_policy(1), omega_policy(2), any_policy(3);
  plan.arm(qa_policy, "qa");
  plan.arm(omega_policy, "omega");
  plan.arm(any_policy);  // unlabeled policy takes every storm
  EXPECT_EQ(qa_policy.phases().size(), 2u);
  EXPECT_EQ(omega_policy.phases().size(), 1u);
  EXPECT_EQ(any_policy.phases().size(), 2u);
}

}  // namespace
}  // namespace tbwf::registers
