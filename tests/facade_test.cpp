// Tests of the public facade (TbwfSystem) across the backend matrix:
// both Omega-Delta implementations x both QA register bases, plus the
// non-counter types through the facade.
#include <gtest/gtest.h>

#include <memory>

#include "core/progress.hpp"
#include "core/tbwf.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"

namespace tbwf::core {
namespace {

using qa::Counter;
using sim::ActivitySpec;
using sim::Pid;
using sim::SimEnv;
using sim::Task;
using sim::World;
using I64 = std::int64_t;

template <class Obj>
Task n_ops(SimEnv& env, Obj& obj, int ops, int& done) {
  for (int i = 0; i < ops; ++i) {
    (void)co_await obj.invoke(env, Counter::Op{1});
  }
  ++done;
}

TEST(Facade, AtomicOmegaAtomicBase) {
  const int n = 3;
  auto specs = sim::uniform_specs(n, ActivitySpec::timely(4 * n));
  World world(n, std::make_unique<sim::TimelinessSchedule>(specs, 1));
  TbwfSystem<Counter> sys(world, 0, OmegaBackend::AtomicRegisters);
  int done = 0;
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "w", [&](SimEnv& env) {
      return n_ops(env, sys.object(), 20, done);
    });
  }
  ASSERT_TRUE(world.run_until([&] { return done == n; }, 50000000));
  EXPECT_EQ(sys.object().qa().peek_frontier().state, n * 20);
}

TEST(Facade, AtomicOmegaAbortableBase) {
  const int n = 3;
  auto specs = sim::uniform_specs(n, ActivitySpec::timely(4 * n));
  World world(n, std::make_unique<sim::TimelinessSchedule>(specs, 2));
  registers::ProbabilisticAbortPolicy qa_policy(5, 0.6, 0.6, 0.5);
  TbwfSystem<Counter, qa::AbortableBase> sys(
      world, 0, OmegaBackend::AtomicRegisters, &qa_policy);
  int done = 0;
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "w", [&](SimEnv& env) {
      return n_ops(env, sys.object(), 20, done);
    });
  }
  ASSERT_TRUE(world.run_until([&] { return done == n; }, 50000000));
  EXPECT_EQ(sys.object().qa().peek_frontier().state, n * 20);
}

TEST(Facade, AbortableOmegaAtomicBase) {
  const int n = 3;
  auto specs = sim::uniform_specs(n, ActivitySpec::timely(6 * n));
  World world(n, std::make_unique<sim::TimelinessSchedule>(specs, 3));
  registers::ProbabilisticAbortPolicy omega_policy(7, 0.5, 0.5, 0.5);
  TbwfSystem<Counter> sys(world, 0, OmegaBackend::AbortableRegisters,
                          nullptr, &omega_policy);
  int done = 0;
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "w", [&](SimEnv& env) {
      return n_ops(env, sys.object(), 10, done);
    });
  }
  ASSERT_TRUE(world.run_until([&] { return done == n; }, 100000000));
  EXPECT_EQ(sys.object().qa().peek_frontier().state, n * 10);
}

TEST(Facade, OnceRegisterConsensusThroughFacade) {
  const int n = 4;
  auto specs = sim::uniform_specs(n, ActivitySpec::timely(4 * n));
  World world(n, std::make_unique<sim::TimelinessSchedule>(specs, 4));
  TbwfSystem<qa::OnceRegister> sys(world, qa::OnceRegister::kUndecided,
                                   OmegaBackend::AtomicRegisters);
  std::vector<I64> decided(n, qa::OnceRegister::kUndecided);
  std::vector<char> won(n, 0);
  int done = 0;
  struct Propose {
    static Task run(SimEnv& env, TbwfObject<qa::OnceRegister>& obj,
                    I64& out, char& w, int& done) {
      const auto r = co_await obj.invoke(
          env, qa::OnceRegister::propose(500 + env.pid()));
      out = r.value;
      w = r.won ? 1 : 0;
      ++done;
    }
  };
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "c", [&, p](SimEnv& env) {
      return Propose::run(env, sys.object(), decided[p], won[p], done);
    });
  }
  ASSERT_TRUE(world.run_until([&] { return done == n; }, 50000000));
  int winners = 0;
  for (Pid p = 0; p < n; ++p) {
    EXPECT_EQ(decided[p], decided[0]) << "agreement violated";
    winners += won[p];
  }
  EXPECT_EQ(winners, 1);
  EXPECT_GE(decided[0], 500);
  EXPECT_LT(decided[0], 500 + n);
}

TEST(Facade, OmegaIoIsSharedWithObject) {
  World world(2, std::make_unique<sim::RoundRobinSchedule>());
  TbwfSystem<Counter> sys(world, 0, OmegaBackend::AtomicRegisters);
  // Before anyone invokes, no process is a candidate.
  EXPECT_FALSE(sys.omega_io(0).candidate);
  EXPECT_FALSE(sys.omega_io(1).candidate);
  int done = 0;
  world.spawn(0, "w", [&](SimEnv& env) {
    return n_ops(env, sys.object(), 1, done);
  });
  world.run(100);  // mid-operation: p0 competes
  if (done == 0) {
    EXPECT_TRUE(sys.omega_io(0).candidate);
  }
  world.run(5000000);
  EXPECT_EQ(done, 1);
  // After completing, p0 retired its candidacy.
  EXPECT_FALSE(sys.omega_io(0).candidate);
}

}  // namespace
}  // namespace tbwf::core
