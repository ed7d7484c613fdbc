// Tests of the nested sub-procedure coroutine type Co<T>: value
// delivery, exception propagation through nested frames, interaction
// with register-operation suspension, RAII teardown, and run_inline()
// (a whole stack of ready awaiters completed on the calling thread).
#include <gtest/gtest.h>

#include <coroutine>
#include <memory>
#include <stdexcept>

#include "sim/co.hpp"
#include "sim/env.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"

namespace tbwf::sim {
namespace {

using I64 = std::int64_t;

std::unique_ptr<World> make_world(int n = 1) {
  return std::make_unique<World>(n, std::make_unique<RoundRobinSchedule>());
}

// -- value propagation ------------------------------------------------------

Co<I64> leaf_value(SimEnv& env, I64 v) {
  co_await env.yield();
  co_return v;
}

Co<I64> mid_sum(SimEnv& env) {
  const I64 a = co_await leaf_value(env, 10);
  const I64 b = co_await leaf_value(env, 32);
  co_return a + b;
}

Task value_driver(SimEnv& env, I64& out) {
  out = co_await mid_sum(env);
}

TEST(Co, ValuesPropagateThroughTwoLevels) {
  auto w = make_world();
  I64 out = 0;
  w->spawn(0, "t", [&](SimEnv& env) { return value_driver(env, out); });
  w->run(100);
  EXPECT_EQ(out, 42);
}

// -- move-only results --------------------------------------------------------

Co<std::unique_ptr<I64>> make_boxed(SimEnv& env, I64 v) {
  co_await env.yield();
  co_return std::make_unique<I64>(v);
}

Task boxed_driver(SimEnv& env, I64& out) {
  auto boxed = co_await make_boxed(env, 7);
  out = *boxed;
}

TEST(Co, MoveOnlyResultsWork) {
  auto w = make_world();
  I64 out = 0;
  w->spawn(0, "t", [&](SimEnv& env) { return boxed_driver(env, out); });
  w->run(100);
  EXPECT_EQ(out, 7);
}

// -- exceptions ----------------------------------------------------------------

Co<void> thrower(SimEnv& env, int depth) {
  co_await env.yield();
  if (depth == 0) throw std::runtime_error("boom");
  co_await thrower(env, depth - 1);
}

Task catching_driver(SimEnv& env, bool& caught) {
  try {
    co_await thrower(env, 3);
  } catch (const std::runtime_error& e) {
    caught = std::string(e.what()) == "boom";
  }
}

TEST(Co, ExceptionsUnwindNestedFramesToTheCaller) {
  auto w = make_world();
  bool caught = false;
  w->spawn(0, "t", [&](SimEnv& env) { return catching_driver(env, caught); });
  w->run(100);
  EXPECT_TRUE(caught);
}

Task uncaught_driver(SimEnv& env) {
  co_await thrower(env, 1);
}

TEST(Co, UncaughtExceptionSurfacesFromRun) {
  auto w = make_world();
  w->spawn(0, "t", [&](SimEnv& env) { return uncaught_driver(env); });
  EXPECT_THROW(w->run(100), std::runtime_error);
}

// -- suspension across nesting ----------------------------------------------------

Co<I64> slow_leaf(SimEnv& env, AtomicReg<I64> reg) {
  // Two register ops: the whole stack suspends twice per op.
  const I64 a = co_await env.read(reg);
  co_await env.write(reg, a + 1);
  co_return a;
}

Task interleave_driver(SimEnv& env, AtomicReg<I64> reg, int times) {
  for (int i = 0; i < times; ++i) {
    (void)co_await slow_leaf(env, reg);
  }
}

TEST(Co, NestedSuspensionInterleavesAcrossProcesses) {
  auto w = make_world(2);
  auto reg = w->make_atomic<I64>("r", 0);
  w->spawn(0, "a", [&](SimEnv& env) {
    return interleave_driver(env, reg, 20);
  });
  w->spawn(1, "b", [&](SimEnv& env) {
    return interleave_driver(env, reg, 20);
  });
  w->run(10000);
  // Round-robin lockstep makes every read see the other's write: no
  // lost updates in this exact interleaving (read@t, write@t+2
  // alternate perfectly).
  EXPECT_GT(w->peek(reg), 0);
  EXPECT_LE(w->peek(reg), 40);
}

// -- teardown with live nested frames ----------------------------------------------

Co<void> sleeper(SimEnv& env) {
  for (;;) co_await env.yield();
}

Co<void> nested_sleeper(SimEnv& env) {
  co_await sleeper(env);
}

Task sleeper_driver(SimEnv& env) {
  co_await nested_sleeper(env);
}

TEST(Co, WorldTeardownDestroysSuspendedNestedStacks) {
  // Destroying the world with coroutines suspended three frames deep
  // must release every frame (ASAN-clean).
  auto w = make_world();
  w->spawn(0, "t", [&](SimEnv& env) { return sleeper_driver(env); });
  w->run(50);
  w.reset();
  SUCCEED();
}

Task spin_task(SimEnv& env, int& counter) {
  for (;;) {
    ++counter;
    co_await env.yield();
  }
}

TEST(Co, CrashDestroysSuspendedNestedStacks) {
  auto w = make_world(2);
  int other = 0;
  w->spawn(0, "t", [&](SimEnv& env) { return sleeper_driver(env); });
  w->spawn(1, "b", [&other](SimEnv& env) { return spin_task(env, other); });
  w->run(50);
  w->crash(0);  // destroys the three-deep suspended stack
  w->run(50);
  EXPECT_GT(other, 50);
}

// -- run_inline ---------------------------------------------------------------------

/// An awaiter whose operation is already done, like the rt registers'.
struct ReadyValue {
  I64 value;
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  I64 await_resume() const noexcept { return value; }
};

Co<I64> ready_leaf(I64 v) { co_return co_await ReadyValue{v}; }

Co<I64> ready_sum() {
  const I64 a = co_await ready_leaf(10);
  const I64 b = co_await ready_leaf(32);
  co_return a + b;
}

TEST(CoRunInline, NestedReadyAwaitersCompleteInline) {
  EXPECT_EQ(ready_sum().run_inline(), 42);
}

Co<std::unique_ptr<I64>> ready_boxed(I64 v) {
  co_return std::make_unique<I64>(co_await ReadyValue{v});
}

TEST(CoRunInline, MoveOnlyResultReachesTheCaller) {
  const std::unique_ptr<I64> boxed = ready_boxed(7).run_inline();
  ASSERT_NE(boxed, nullptr);
  EXPECT_EQ(*boxed, 7);
}

Co<I64> ready_thrower(int depth) {
  if (depth == 0) throw std::runtime_error("boom");
  co_return co_await ready_thrower(depth - 1);
}

TEST(CoRunInline, ExceptionReachesTheCaller) {
  EXPECT_THROW((void)ready_thrower(3).run_inline(), std::runtime_error);
}

Co<I64> suspends_once() {
  co_await std::suspend_always{};
  co_return 1;
}

TEST(CoRunInline, SuspendingAwaiterDies) {
  EXPECT_DEATH((void)suspends_once().run_inline(), "an awaiter suspended");
}

}  // namespace
}  // namespace tbwf::sim
