// Integration tests of the full TBWF stack (Figure 7 over Omega-Delta
// and the query-abortable universal object): Theorems 14 and 15, plus
// the canonical-use requirement.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/progress.hpp"
#include "core/tbwf.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"
#include "zoo/zoo_types.hpp"

namespace tbwf::core {
namespace {

using qa::Counter;
using sim::ActivitySpec;
using sim::Pid;
using sim::SimEnv;
using sim::Step;
using sim::Task;
using sim::World;
using I64 = std::int64_t;

template <class Obj>
Task forever_worker(SimEnv& env, Obj& obj) {
  for (;;) {
    (void)co_await obj.invoke(env, Counter::Op{1});
  }
}

// -- Theorem 14: all-timely run => every process wait-free ---------------------------

TEST(Tbwf, AllTimelyProcessesAreWaitFree) {
  const int n = 4;
  auto specs = sim::uniform_specs(n, ActivitySpec::timely(4 * n));
  auto sched = std::make_unique<sim::TimelinessSchedule>(specs, 1);
  const auto timely = sched->intended_timely();
  World world(n, std::move(sched));
  TbwfSystem<Counter> sys(world, 0, OmegaBackend::AtomicRegisters);
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "worker", [&](SimEnv& env) {
      return forever_worker(env, sys.object());
    });
  }
  world.run(6000000);

  const auto& log = sys.object().log();
  std::vector<Pid> all(n);
  for (Pid p = 0; p < n; ++p) all[p] = p;
  const auto report =
      analyze_progress(log, world.now(), /*warmup=*/2000000,
                       /*max_gap=*/500000, all);
  const auto verdict = check_tbwf(report, timely);
  EXPECT_TRUE(verdict.holds) << verdict.summary() << "\n"
                             << report.summary();

  // Consistency: the counter's decided value equals total completions
  // (no lost and no duplicated operations).
  std::uint64_t total = 0;
  for (Pid p = 0; p < n; ++p) total += log.completed(p);
  EXPECT_GT(total, 20u);
  EXPECT_GE(sys.object().qa().peek_frontier().state,
            static_cast<I64>(total));
  EXPECT_LE(sys.object().qa().peek_frontier().state,
            static_cast<I64>(total) + n);
}

// -- graceful degradation: untimely processes cannot hinder timely ones ---------------

TEST(Tbwf, UntimelyProcessesDoNotHinderTimelyOnes) {
  const int n = 4;
  std::vector<ActivitySpec> specs = {
      ActivitySpec::timely(8),
      ActivitySpec::timely(8),
      ActivitySpec::growing_flicker(1000, 200),
      ActivitySpec::growing_flicker(1500, 300),
  };
  auto sched = std::make_unique<sim::TimelinessSchedule>(specs, 3);
  const auto timely = sched->intended_timely();
  ASSERT_EQ(timely.size(), 2u);
  World world(n, std::move(sched));
  TbwfSystem<Counter> sys(world, 0, OmegaBackend::AtomicRegisters);
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "worker", [&](SimEnv& env) {
      return forever_worker(env, sys.object());
    });
  }
  world.run(8000000);

  const auto& log = sys.object().log();
  std::vector<Pid> all(n);
  for (Pid p = 0; p < n; ++p) all[p] = p;
  const auto report =
      analyze_progress(log, world.now(), /*warmup=*/3000000,
                       /*max_gap=*/1000000, all);
  const auto verdict = check_tbwf(report, timely);
  EXPECT_TRUE(verdict.holds) << verdict.summary() << "\n"
                             << report.summary();

  // Consistency under flicker chaos.
  std::uint64_t total = 0;
  for (Pid p = 0; p < n; ++p) total += log.completed(p);
  EXPECT_GE(sys.object().qa().peek_frontier().state,
            static_cast<I64>(total));
  EXPECT_LE(sys.object().qa().peek_frontier().state,
            static_cast<I64>(total) + n);
}

// -- TBWF implies obstruction-freedom: a solo process completes ----------------------

TEST(Tbwf, SoloProcessCompletesEveryOperation) {
  const int n = 3;
  // p0 issues operations; p1/p2 are present (omega installed) but never
  // invoke anything and never become candidates.
  World world(n, std::make_unique<sim::RoundRobinSchedule>());
  TbwfSystem<Counter> sys(world, 0, OmegaBackend::AtomicRegisters);

  struct SoloWorker {
    static Task run(SimEnv& env, TbwfObject<Counter>& obj, int ops,
                    bool& done) {
      for (int i = 0; i < ops; ++i) {
        const I64 before = co_await obj.invoke(env, Counter::Op{1});
        EXPECT_EQ(before, i);
      }
      done = true;
    }
  };
  bool done = false;
  world.spawn(0, "solo", [&](SimEnv& env) {
    return SoloWorker::run(env, sys.object(), 50, done);
  });
  world.run(5000000);
  EXPECT_TRUE(done);
  EXPECT_EQ(sys.object().qa().peek_frontier().state, 50);
}

// -- Theorem 15: the whole stack from abortable registers only ------------------------

TEST(Tbwf, Theorem15FullAbortableStack) {
  const int n = 3;
  auto specs = sim::uniform_specs(n, ActivitySpec::timely(6 * n));
  auto sched = std::make_unique<sim::TimelinessSchedule>(specs, 5);
  const auto timely = sched->intended_timely();
  World world(n, std::move(sched));
  registers::ProbabilisticAbortPolicy qa_policy(11, 0.5, 0.5, 0.5);
  registers::ProbabilisticAbortPolicy omega_policy(13, 0.5, 0.5, 0.5);
  TbwfSystem<Counter, qa::AbortableBase> sys(
      world, 0, OmegaBackend::AbortableRegisters, &qa_policy,
      &omega_policy);
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "worker", [&](SimEnv& env) {
      return forever_worker(env, sys.object());
    });
  }
  world.run(12000000);

  const auto& log = sys.object().log();
  // Every timely process keeps completing operations.
  for (Pid p : timely) {
    EXPECT_GE(log.completed(p), 5u) << "p" << p;
  }
  std::uint64_t total = 0;
  for (Pid p = 0; p < n; ++p) total += log.completed(p);
  EXPECT_GE(sys.object().qa().peek_frontier().state,
            static_cast<I64>(total));
  EXPECT_LE(sys.object().qa().peek_frontier().state,
            static_cast<I64>(total) + n);
}

// -- the canonical wait is load-bearing ------------------------------------------------

TEST(Tbwf, NonCanonicalUseLetsOneProcessMonopolize) {
  const int n = 4;
  auto run_mode = [&](bool canonical) {
    auto specs = sim::uniform_specs(n, ActivitySpec::timely(4 * n));
    World world(n, std::make_unique<sim::TimelinessSchedule>(specs, 7));
    TbwfSystem<Counter> sys(world, 0, OmegaBackend::AtomicRegisters);
    sys.object().set_canonical(canonical);
    for (Pid p = 0; p < n; ++p) {
      world.spawn(p, "worker", [&](SimEnv& env) {
        return forever_worker(env, sys.object());
      });
    }
    world.run(8000000);
    // Count completions in the suffix: monopolization is an eventual
    // property (early leadership jitter dilutes whole-run totals).
    const Step cutoff = 4000000;
    std::vector<std::uint64_t> counts;
    for (Pid p = 0; p < n; ++p) {
      const auto& cs = sys.object().log().completions[p];
      counts.push_back(static_cast<std::uint64_t>(std::count_if(
          cs.begin(), cs.end(), [&](Step s) { return s >= cutoff; })));
    }
    return counts;
  };

  const auto canonical = run_mode(true);
  const auto rogue = run_mode(false);
  const double fair_canonical = util::jain_fairness(canonical);
  const double fair_rogue = util::jain_fairness(rogue);

  // Canonical use shares the object; without the wait, one process hogs
  // the leadership in the suffix and the others starve.
  EXPECT_GT(fair_canonical, 0.9)
      << "canonical fairness " << fair_canonical;
  EXPECT_LT(fair_rogue, 0.5) << "rogue fairness " << fair_rogue;
  const auto max_rogue = *std::max_element(rogue.begin(), rogue.end());
  const auto min_rogue = *std::min_element(rogue.begin(), rogue.end());
  EXPECT_GT(max_rogue, 20 * std::max<std::uint64_t>(min_rogue, 1));
}

// -- determinism across the whole stack -------------------------------------------------

TEST(Tbwf, FullStackDeterminism) {
  auto run_once = [] {
    const int n = 3;
    auto specs = sim::uniform_specs(n, ActivitySpec::eager());
    World world(n, std::make_unique<sim::TimelinessSchedule>(specs, 9));
    TbwfSystem<Counter> sys(world, 0, OmegaBackend::AtomicRegisters);
    for (Pid p = 0; p < n; ++p) {
      world.spawn(p, "worker", [&](SimEnv& env) {
        return forever_worker(env, sys.object());
      });
    }
    world.run(1000000);
    std::vector<std::uint64_t> counts;
    for (Pid p = 0; p < n; ++p) {
      counts.push_back(sys.object().log().completed(p));
    }
    return counts;
  };
  EXPECT_EQ(run_once(), run_once());
}

// -- a vector-valued Result through Figure 7 ------------------------------------------

// Snapshot scans return the whole view, so every completed scan hands a
// heap-owning Result up through TbwfObject::invoke. Each process
// alternates writing its own segment with scanning; only p writes
// segment p, so a scan by p must show p's latest completed update.
struct SnapshotWorker {
  static Task run(SimEnv& env, TbwfObject<zoo::SnapshotType>& obj,
                  int rounds, int segments, int& done, bool& views_ok) {
    const Pid p = env.pid();
    for (int k = 1; k <= rounds; ++k) {
      const auto echo =
          co_await obj.invoke(env, zoo::SnapshotType::update(p, k));
      views_ok = views_ok && echo.empty();
      const auto view = co_await obj.invoke(env, zoo::SnapshotType::scan());
      views_ok = views_ok && static_cast<int>(view.size()) == segments &&
                 view[static_cast<std::size_t>(p)] == k;
      ++done;
    }
  }
};

TEST(Tbwf, VectorResultOpsCompleteUnderContention) {
  const int n = 3;
  const int segments = 8;
  const int rounds = 6;
  auto specs = sim::uniform_specs(n, ActivitySpec::timely(4 * n));
  World world(n, std::make_unique<sim::TimelinessSchedule>(specs, 17));
  TbwfSystem<zoo::SnapshotType> sys(
      world, zoo::SnapshotType::initial(segments),
      OmegaBackend::AtomicRegisters);
  std::vector<int> done(n, 0);
  bool views_ok = true;
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "snapshot", [&, p](SimEnv& env) {
      return SnapshotWorker::run(env, sys.object(), rounds, segments,
                                 done[static_cast<std::size_t>(p)],
                                 views_ok);
    });
  }
  world.run(6000000);
  for (Pid p = 0; p < n; ++p) {
    EXPECT_EQ(done[static_cast<std::size_t>(p)], rounds) << "p" << p;
  }
  EXPECT_TRUE(views_ok);
  const auto final_view = sys.object().qa().peek_frontier().state;
  for (Pid p = 0; p < n; ++p) {
    EXPECT_EQ(final_view[static_cast<std::size_t>(p)], rounds) << "p" << p;
  }
}

}  // namespace
}  // namespace tbwf::core
