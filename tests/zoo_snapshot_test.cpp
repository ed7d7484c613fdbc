// Zoo object 1: the wait-free atomic snapshot, as specialist
// (WfSnapshot, double-collect with writer-embedded scans) and as
// QA-universal twin (UniversalZoo/BatchedZoo over SnapshotType), both
// driven through the SAME harness: explorer + Wing-Gong oracle at
// n = 2, 3, mutation seams that the tooling provably bites on
// (dropped embedded scan -> non-linearizable; refused borrow ->
// starvation caught by conformance), and differential
// universal-vs-specialist cross-checks under identical seeds.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/conformance.hpp"
#include "core/tbwf_object.hpp"
#include "registers/abort_policy.hpp"
#include "sim/faultplan.hpp"
#include "sim/schedule.hpp"
#include "verify/explorer.hpp"
#include "verify/qa_batched_harness.hpp"
#include "zoo/snapshot.hpp"
#include "zoo/zoo_harness.hpp"

namespace tbwf::zoo {
namespace {

using verify::ExploreResult;
using verify::Explorer;
using verify::ExplorerOptions;
using verify::HistoryOp;
using verify::OpStatus;
using verify::BatchedZoo;
using verify::UniversalZoo;
using verify::ZooExploredRun;
using verify::make_zoo_run_factory;

using SpecRun = ZooExploredRun<SnapshotType, WfSnapshot<>>;
using UniSnap = UniversalZoo<SnapshotType>;
using UniRun = ZooExploredRun<SnapshotType, UniSnap>;
using BatSnap = BatchedZoo<SnapshotType>;
using BatRun = ZooExploredRun<SnapshotType, BatSnap>;

SpecRun::Maker specialist_maker(SnapshotMutations m = {}) {
  return [m](sim::World& w, const SnapshotType::State& init) {
    auto obj = std::make_unique<WfSnapshot<>>(w, init);
    obj->set_mutations(m);
    return obj;
  };
}

UniRun::Maker universal_maker() {
  return [](sim::World& w, const SnapshotType::State& init) {
    return std::make_unique<UniSnap>(w, init);
  };
}

BatRun::Maker batched_maker() {
  return [](sim::World& w, const SnapshotType::State& init) {
    qa::BatchedQaUniversal<SnapshotType>::Options options;
    options.patience = 1;
    options.combine_attempts = 2;
    return std::make_unique<BatSnap>(w, init, nullptr, options);
  };
}

ExplorerOptions bounds(const char* name, int max_runs = 60000) {
  ExplorerOptions opt;
  opt.name = name;
  opt.max_depth = 500;
  opt.max_runs = max_runs;
  return opt;
}

// -- explorer at n=2, n=3, both twins -------------------------------------

TEST(ZooSnapshot, SpecialistExplorerCleanN2) {
  Explorer explorer(make_zoo_run_factory<SnapshotType, WfSnapshot<>>(
                        snapshot_explore_config(2), specialist_maker()),
                    bounds("zoo-snap-spec-n2"));
  const ExploreResult result = explorer.explore();
  // Search pin: exact ExploreStats of this configuration. They move only
  // if the explorer's search itself changes (docs/VERIFY.md).
  EXPECT_EQ(result.stats.summary(),
            "runs=88 steps=1808 distinct_states=544 sleep_skips=361 "
            "preemption_skips=0 state_prunes=0");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 10000)
      << result.summary();
}

TEST(ZooSnapshot, UniversalExplorerCleanN2) {
  Explorer explorer(make_zoo_run_factory<SnapshotType, UniSnap>(
                        snapshot_explore_config(2), universal_maker()),
                    bounds("zoo-snap-uni-n2"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=60000 steps=2619365 distinct_states=133885 sleep_skips=40421 "
            "preemption_skips=0 state_prunes=43844 (run budget exhausted)");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 10000)
      << result.summary();
}

TEST(ZooSnapshot, BatchedExplorerCleanN2) {
  Explorer explorer(make_zoo_run_factory<SnapshotType, BatSnap>(
                        snapshot_explore_config(2), batched_maker()),
                    bounds("zoo-snap-bat-n2", 12000));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=12000 steps=899567 distinct_states=29570 sleep_skips=10343 "
            "preemption_skips=0 state_prunes=9755 (run budget exhausted)");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 5000)
      << result.summary();
}

TEST(ZooSnapshot, SpecialistExplorerCleanN3) {
  Explorer explorer(make_zoo_run_factory<SnapshotType, WfSnapshot<>>(
                        snapshot_explore_config(3), specialist_maker()),
                    bounds("zoo-snap-spec-n3", 8000));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=8000 steps=361374 distinct_states=55363 sleep_skips=84927 "
            "preemption_skips=0 state_prunes=174 (run budget exhausted)");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 5000)
      << result.summary();
}

TEST(ZooSnapshot, UniversalExplorerCleanN3) {
  Explorer explorer(make_zoo_run_factory<SnapshotType, UniSnap>(
                        snapshot_explore_config(3), universal_maker()),
                    bounds("zoo-snap-uni-n3", 8000));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=8000 steps=635607 distinct_states=27800 sleep_skips=15903 "
            "preemption_skips=0 state_prunes=5967 (run budget exhausted)");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 5000)
      << result.summary();
}

// -- abortable registers: the abort paths the threads run ----------------

// The specialist on abortable registers whose every contended operation
// aborts: once with aborted writes that always land, once with ones that
// never do. Alternate is left out -- its flip state outlives a run, so
// replayed schedules would not repeat.
TEST(ZooSnapshot, SpecialistAbortableExplorerCleanN2) {
  using Effect = registers::AlwaysAbortPolicy::Effect;
  using Spec = WfSnapshot<qa::AbortableBase>;
  const std::pair<Effect, const char*> cases[] = {
      {Effect::Always,
       "runs=72 steps=1062 distinct_states=226 sleep_skips=109 "
       "preemption_skips=0 state_prunes=25"},
      {Effect::Never,
       "runs=72 steps=1065 distinct_states=230 sleep_skips=109 "
       "preemption_skips=0 state_prunes=24"},
  };
  for (const auto& [effect, pin] : cases) {
    registers::AlwaysAbortPolicy policy(effect);
    Explorer explorer(
        make_zoo_run_factory<SnapshotType, Spec>(
            snapshot_explore_config(2),
            make_with_policy<SnapshotType, Spec>(&policy)),
        bounds("zoo-snap-spec-abortable-n2"));
    const ExploreResult result = explorer.explore();
    EXPECT_EQ(result.stats.summary(), pin);
    EXPECT_FALSE(result.violation_found) << result.summary();
    EXPECT_TRUE(result.clean()) << result.summary();
  }
}

// -- mutation 1: dropped embedded scan -> non-linearizable ----------------

// The scanner-vs-double-updater workload: p0 only scans; p1 updates
// twice, so a dirty scan borrows p1's second embedded view. With
// non-zero initial segments a zeroed embedded view can never be a
// legal scan result.
ZooExploreConfig<SnapshotType> borrow_config() {
  ZooExploreConfig<SnapshotType> config;
  config.n = 2;
  config.initial = {5, 6};
  config.ops.resize(2);
  config.ops[0] = {SnapshotType::scan()};
  config.ops[1] = {SnapshotType::update(1, 7), SnapshotType::update(1, 8)};
  return config;
}

TEST(ZooSnapshot, MutationDropEmbeddedScanCaught) {
  Explorer explorer(
      make_zoo_run_factory<SnapshotType, WfSnapshot<>>(
          borrow_config(),
          specialist_maker(SnapshotMutations{.drop_embedded_scan = true})),
      bounds("zoo-snap-dropscan"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=3 steps=112 distinct_states=22 sleep_skips=3 "
            "preemption_skips=0 state_prunes=0");
  EXPECT_EQ(result.artifact.schedule.size(), 12u);
  EXPECT_EQ(result.artifact.trace_digest, 0xcc1fd97bbdb8f408ull);
  ASSERT_TRUE(result.violation_found) << result.summary();
  EXPECT_NE(result.artifact.violation.find("VIOLATION"), std::string::npos);
  EXPECT_FALSE(result.artifact.schedule.empty());
}

TEST(ZooSnapshot, IntactSnapshotCleanAtIdenticalBounds) {
  Explorer explorer(make_zoo_run_factory<SnapshotType, WfSnapshot<>>(
                        borrow_config(), specialist_maker()),
                    bounds("zoo-snap-intact"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=12 steps=211 distinct_states=134 sleep_skips=83 "
            "preemption_skips=0 state_prunes=2");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean()) << result.summary();
}

// -- mutation 2: refused borrow -> scanner starvation (conformance) -------

core::ConformanceReport starvation_run(bool never_borrow) {
  const int n = 2;
  // The classic double-collect adversary, as an exact script: one full
  // update by p1 is 6 steps (4-read embedded scan + own read + write),
  // one collect by p0 is 2 reads. Looping [p1 x6, p0 x2] lands exactly
  // one p1 write between every pair of p0 collects, so p0's
  // double-collect stays dirty forever -- yet p0 remains timely (a
  // step every <= 7 global steps). Only the borrow rule lets p0
  // finish; refusing it starves a timely process, which is precisely
  // what the conformance checker must flag.
  sim::World world(n, std::make_unique<sim::ScriptedSchedule>(
                          std::vector<sim::Pid>{1, 1, 1, 1, 1, 1, 0, 0},
                          /*loop_forever=*/true));
  WfSnapshot<> snap(world, SnapshotType::initial(n));
  snap.set_mutations(SnapshotMutations{.never_borrow = never_borrow});
  core::OpLog log(n);

  struct Worker {
    static sim::Task scans(sim::SimEnv& env, WfSnapshot<>& snap,
                           core::OpLog& log) {
      for (;;) {
        ++log.started[0];
        (void)co_await snap.invoke(env, SnapshotType::scan());
        log.completions[0].push_back(env.now());
      }
    }
    static sim::Task updates(sim::SimEnv& env, WfSnapshot<>& snap,
                             core::OpLog& log) {
      std::int64_t v = 0;
      for (;;) {
        ++log.started[1];
        (void)co_await snap.invoke(env, SnapshotType::update(1, ++v));
        log.completions[1].push_back(env.now());
      }
    }
  };
  world.spawn(0, "scan", [&](sim::SimEnv& env) {
    return Worker::scans(env, snap, log);
  });
  world.spawn(1, "upd", [&](sim::SimEnv& env) {
    return Worker::updates(env, snap, log);
  });
  world.run(300000);

  core::ConformanceOptions copt;
  copt.timely_bound = 64;
  copt.stabilization = 50000;
  copt.max_completion_gap = 50000;
  copt.min_suffix = 100000;
  return core::check_chaos_conformance(world.trace(), log, sim::FaultPlan{},
                                       {0, 1}, copt);
}

TEST(ZooSnapshot, MutationNeverBorrowStarvesTheScanner) {
  const auto report = starvation_run(true);
  ASSERT_FALSE(report.ok) << report.summary();
  bool wait_freedom_violated = false;
  for (const std::string& v : report.violations) {
    if (v.find("wait-freedom") != std::string::npos) {
      wait_freedom_violated = true;
    }
  }
  EXPECT_TRUE(wait_freedom_violated) << report.summary();
}

TEST(ZooSnapshot, IntactBorrowKeepsTheScannerWaitFree) {
  const auto report = starvation_run(false);
  EXPECT_TRUE(report.ok) << report.summary();
}

// -- differential: specialist vs universal under identical seeds ----------

// Final abstract state implied by the Ok fates: segment p holds the
// value of p's LAST Ok update (updates to one segment are issued by
// one process, hence totally ordered by program order).
SnapshotType::State expected_final(
    const ZooExploreConfig<SnapshotType>& config,
    const std::vector<HistoryOp<SnapshotType>>& history) {
  SnapshotType::State state = config.initial;
  for (const auto& op : history) {
    if (op.status == OpStatus::Ok && op.op.is_update) {
      state[static_cast<std::size_t>(op.op.index)] = op.op.value;
    }
  }
  return state;
}

TEST(ZooSnapshot, DifferentialSpecialistVsUniversal) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto config = snapshot_explore_config(2, 2, seed);
    const auto spec = run_zoo_workload<SnapshotType, WfSnapshot<>>(
        config, specialist_maker());
    const auto uni = run_zoo_workload<SnapshotType, UniSnap>(
        config, universal_maker());
    ASSERT_TRUE(spec.completed && uni.completed) << "seed " << seed;
    EXPECT_TRUE(spec.linearizable) << "seed " << seed << ": "
                                   << spec.oracle_summary;
    EXPECT_TRUE(uni.linearizable) << "seed " << seed << ": "
                                  << uni.oracle_summary;
    // Each twin's quiescent state must equal the state its own Ok
    // fates imply; when the Ok sets agree the states agree with each
    // other transitively.
    EXPECT_EQ(spec.final_state, expected_final(config, spec.history))
        << "seed " << seed;
    EXPECT_EQ(uni.final_state, expected_final(config, uni.history))
        << "seed " << seed;
    // The specialist never aborts: every fate is Ok.
    for (const auto& op : spec.history) {
      EXPECT_EQ(op.status, OpStatus::Ok) << "seed " << seed;
    }
  }
}

TEST(ZooSnapshot, SoloOpsNeverBottom) {
  ZooExploreConfig<SnapshotType> config;
  config.n = 2;
  config.initial = SnapshotType::initial(2);
  config.ops.resize(2);
  config.ops[0] = {SnapshotType::update(0, 3), SnapshotType::scan(),
                   SnapshotType::update(0, 4), SnapshotType::scan()};
  for (const bool universal : {false, true}) {
    const auto outcome =
        universal ? run_zoo_workload<SnapshotType, UniSnap>(config,
                                                            universal_maker())
                  : run_zoo_workload<SnapshotType, WfSnapshot<>>(
                        config, specialist_maker());
    ASSERT_TRUE(outcome.completed);
    for (const auto& op : outcome.history) {
      EXPECT_EQ(op.status, OpStatus::Ok) << (universal ? "uni" : "spec");
    }
  }
}

}  // namespace
}  // namespace tbwf::zoo
