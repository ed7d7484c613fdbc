// Edge cases and error handling of the simulation kernel: empty worlds,
// exhausted schedules, register bookkeeping, spec violations, stress
// configurations.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/env.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"

namespace tbwf::sim {
namespace {

using I64 = std::int64_t;

Task spin(SimEnv& env) {
  for (;;) co_await env.yield();
}

TEST(WorldEdge, RunWithNoTasksStopsImmediately) {
  World world(2, std::make_unique<RoundRobinSchedule>());
  EXPECT_EQ(world.run(100), 0u);
  EXPECT_EQ(world.now(), 0u);
}

TEST(WorldEdge, RunZeroStepsIsANoop) {
  World world(1, std::make_unique<RoundRobinSchedule>());
  world.spawn(0, "s", [](SimEnv& env) { return spin(env); });
  EXPECT_EQ(world.run(0), 0u);
}

TEST(WorldEdge, SingleProcessWorld) {
  World world(1, std::make_unique<RoundRobinSchedule>());
  auto reg = world.make_atomic<I64>("r", 7);
  EXPECT_EQ(world.peek(reg), 7);
  world.spawn(0, "s", [](SimEnv& env) { return spin(env); });
  EXPECT_EQ(world.run(10), 10u);
}

TEST(WorldEdge, CrashingTwiceIsIdempotent) {
  World world(2, std::make_unique<RoundRobinSchedule>());
  world.spawn(0, "s", [](SimEnv& env) { return spin(env); });
  world.spawn(1, "s", [](SimEnv& env) { return spin(env); });
  world.run(10);
  world.crash(0);
  world.crash(0);
  EXPECT_TRUE(world.crashed(0));
  world.run(10);
  EXPECT_EQ(world.trace().steps_of(1), 15u);
}

TEST(WorldEdge, CellInfoTracksNamesAndCounts) {
  World world(1, std::make_unique<RoundRobinSchedule>());
  auto reg = world.make_atomic<I64>("my-register", 0);
  struct W {
    static Task run(SimEnv& env, AtomicReg<I64> reg) {
      for (int i = 0; i < 3; ++i) co_await env.write(reg, i);
      (void)co_await env.read(reg);
    }
  };
  world.spawn(0, "w", [reg](SimEnv& env) { return W::run(env, reg); });
  world.run(100);
  const auto& info = world.cell_info(reg.idx);
  EXPECT_EQ(info.name, "my-register");
  EXPECT_EQ(info.n_writes, 3u);
  EXPECT_EQ(info.n_reads, 1u);
  EXPECT_EQ(world.register_count(), 1u);
}

TEST(WorldEdge, PerProcessRngIsDeterministicAndDistinct) {
  auto sample = [](Pid p) {
    World world(2, std::make_unique<RoundRobinSchedule>());
    return world.env(p).rng().next();
  };
  EXPECT_EQ(sample(0), sample(0));
  EXPECT_NE(sample(0), sample(1));
}

TEST(WorldEdge, SeedChangesAuxRandomness) {
  WorldOptions a, b;
  a.seed = 1;
  b.seed = 2;
  World wa(1, std::make_unique<RoundRobinSchedule>(), a);
  World wb(1, std::make_unique<RoundRobinSchedule>(), b);
  EXPECT_NE(wa.aux_rng().next(), wb.aux_rng().next());
}

// -- stress: many processes, many sub-tasks, many registers ---------------------------

Task stress_worker(SimEnv& env, std::vector<AtomicReg<I64>>& regs) {
  auto& rng = env.rng();
  for (;;) {
    const auto idx = rng.below(regs.size());
    const I64 v = co_await env.read(regs[idx]);
    co_await env.write(regs[idx], v + 1);
  }
}

TEST(WorldStress, SixteenProcessesFourTasksEachStayConsistent) {
  const int n = 16;
  World world(n, std::make_unique<RandomSchedule>(99));
  std::vector<AtomicReg<I64>> regs;
  for (int i = 0; i < 32; ++i) {
    regs.push_back(
        world.make_atomic<I64>(std::string("r").append(std::to_string(i)), 0));
  }
  for (Pid p = 0; p < n; ++p) {
    for (int t = 0; t < 4; ++t) {
      world.spawn(p, std::string("w").append(std::to_string(t)),
                  [&regs](SimEnv& env) { return stress_worker(env, regs); });
    }
  }
  EXPECT_EQ(world.run(2000000), 2000000u);
  // Register values stay within the number of write responses.
  I64 total = 0;
  for (const auto& reg : regs) total += world.peek(reg);
  EXPECT_GT(total, 0);
  EXPECT_LE(static_cast<std::uint64_t>(total), world.total_writes());
  // All processes took steps; under a fair random schedule each gets
  // roughly 1/16th.
  for (Pid p = 0; p < n; ++p) {
    EXPECT_GT(world.trace().steps_of(p), 2000000u / 32);
  }
}

TEST(WorldStress, ManyCrashesManySpawns) {
  const int n = 8;
  World world(n, std::make_unique<RandomSchedule>(7));
  auto reg = world.make_atomic<I64>("r", 0);
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "s", [reg](SimEnv& env) -> Task {
      for (;;) {
        const I64 v = co_await env.read(reg);
        co_await env.write(reg, v + 1);
      }
    });
  }
  for (Pid p = 1; p < n; ++p) {
    world.schedule_crash(p, 10000ULL * p);
  }
  world.run(200000);
  for (Pid p = 1; p < n; ++p) EXPECT_TRUE(world.crashed(p));
  EXPECT_FALSE(world.crashed(0));
  EXPECT_GT(world.peek(reg), 0);
}

TEST(WorldEdge, CapturingCoroutineLambdasOutliveTheirSpawnCalls) {
  // A coroutine lambda reads its captures through the lambda object, so
  // the world must keep each factory alive at a fixed address for as
  // long as the sub-task it booted runs: root and child alike, and again
  // after a restart re-boots the root from its stored recipe.
  World world(1, std::make_unique<RoundRobinSchedule>());
  int root_steps = 0;
  int child_steps = 0;
  world.spawn(0, "root", [&](SimEnv& env) -> Task {
    env.spawn("child", [&](SimEnv& child) -> Task {
      for (;;) {
        ++child_steps;
        co_await child.yield();
      }
    });
    for (;;) {
      ++root_steps;
      co_await env.yield();
    }
  });
  world.run(20);
  EXPECT_GT(root_steps, 0);
  EXPECT_GT(child_steps, 0);
  const int root_before = root_steps;
  const int child_before = child_steps;
  world.crash(0);
  world.restart(0);
  world.run(20);
  EXPECT_GT(root_steps, root_before);
  EXPECT_GT(child_steps, child_before);
}

// -- sub-task round-robin order ------------------------------------------------
//
// Each granted step of a process advances one of its sub-tasks, in
// round-robin order. These pin that order where the sub-task list
// changes: children spawned mid-step, a spawn into another process from
// inside a step, and the re-boot after a crash.

/// Appends `tag` to `log` on every step it is granted.
Task tagged(SimEnv& env, std::vector<std::string>& log, std::string tag) {
  for (;;) {
    log.push_back(tag);
    co_await env.yield();
  }
}

/// Spawns children "a" and "b" on its own process from inside its
/// first step, then behaves like tagged(log, "R").
Task parent_of_two(SimEnv& env, std::vector<std::string>& log) {
  log.push_back("R");
  env.spawn("a", [&log](SimEnv& e) { return tagged(e, log, "a"); });
  env.spawn("b", [&log](SimEnv& e) { return tagged(e, log, "b"); });
  for (;;) {
    co_await env.yield();
    log.push_back("R");
  }
}

/// Spawns "c" on process 1 from inside its first step, then behaves
/// like tagged(log, "x").
Task spawn_on_peer(SimEnv& env, std::vector<std::string>& log) {
  env.world().spawn(1, "c", [&log](SimEnv& e) { return tagged(e, log, "c"); });
  for (;;) {
    log.push_back("x");
    co_await env.yield();
  }
}

using Log = std::vector<std::string>;

TEST(WorldEdge, SubTaskRoundRobinOrderIsPinned) {
  {
    SCOPED_TRACE("children spawned mid-step join after the step");
    Log log;
    World world(1, std::make_unique<RoundRobinSchedule>());
    world.spawn(0, "R", [&log](SimEnv& e) { return parent_of_two(e, log); });
    world.run(7);
    EXPECT_EQ(log, (Log{"R", "R", "a", "b", "R", "a", "b"}));
  }
  {
    SCOPED_TRACE("a spawn into another process joins its current round");
    Log log;
    World world(2, std::make_unique<ScriptedSchedule>(
                       std::vector<Pid>{1, 0, 1, 1, 1, 1, 1}));
    world.spawn(0, "x", [&log](SimEnv& e) { return spawn_on_peer(e, log); });
    world.spawn(1, "P", [&log](SimEnv& e) { return tagged(e, log, "P"); });
    world.spawn(1, "Q", [&log](SimEnv& e) { return tagged(e, log, "Q"); });
    world.run(7);
    EXPECT_EQ(log, (Log{"P", "x", "Q", "c", "P", "Q", "c"}));
  }
  {
    SCOPED_TRACE("a restart re-boots the roots and restarts the round");
    Log log;
    World world(1, std::make_unique<RoundRobinSchedule>());
    world.spawn(0, "R", [&log](SimEnv& e) { return parent_of_two(e, log); });
    world.spawn(0, "S", [&log](SimEnv& e) { return tagged(e, log, "S"); });
    world.run(3);
    EXPECT_EQ(log, (Log{"R", "S", "a"}));
    world.crash(0);
    world.restart(0);
    log.clear();
    world.run(5);
    EXPECT_EQ(log, (Log{"R", "S", "a", "b", "R"}));
  }
}

// -- assertion behaviour -----------------------------------------------------------

TEST(WorldEdge, SpawnOnCrashedProcessDies) {
  World world(1, std::make_unique<RoundRobinSchedule>());
  world.spawn(0, "s", [](SimEnv& env) { return spin(env); });
  world.run(5);
  world.crash(0);
  EXPECT_DEATH(
      world.spawn(0, "late", [](SimEnv& env) { return spin(env); }),
      "crashed");
}

TEST(WorldEdge, OutOfRangePidDies) {
  World world(2, std::make_unique<RoundRobinSchedule>());
  EXPECT_DEATH(world.crash(7), "pid out of range");
}

}  // namespace
}  // namespace tbwf::sim
