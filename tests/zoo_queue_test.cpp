// Zoo object 2: the wait-free bounded MPMC queue, served by its
// QA-universal twin over BoundedQueueOf<Cap> (it has no register
// specialist). Explorer + oracle at n = 2, 3; solo runs never answer
// bottom and see exact full/empty verdicts; a randomized sweep checks
// conservation under six seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/schedule.hpp"
#include "verify/explorer.hpp"
#include "zoo/zoo_harness.hpp"

namespace tbwf::zoo {
namespace {

using verify::ExploreResult;
using verify::Explorer;
using verify::ExplorerOptions;
using verify::OpStatus;
using verify::UniversalZoo;
using verify::ZooExploredRun;
using verify::make_zoo_run_factory;

using Q2 = BoundedQueueOf<2>;
using Uni2 = UniversalZoo<Q2>;

ZooExploredRun<Q2, Uni2>::Maker universal_maker() {
  return [](sim::World& w, const Q2::State& init) {
    return std::make_unique<Uni2>(w, init);
  };
}

ExplorerOptions bounds(const char* name, int max_runs = 60000) {
  ExplorerOptions opt;
  opt.name = name;
  opt.max_depth = 500;
  opt.max_runs = max_runs;
  return opt;
}

// -- sequential semantics (solo: exact verdicts, no bottom) ---------------

TEST(ZooQueue, SoloFifoFullEmptyExact) {
  ZooExploreConfig<Q2> config;
  config.n = 2;
  config.ops.resize(2);
  config.ops[0] = {Q2::enqueue(1), Q2::enqueue(2), Q2::enqueue(3),
                   Q2::dequeue(), Q2::dequeue(), Q2::dequeue()};
  const auto outcome = run_zoo_workload<Q2, Uni2>(config, universal_maker());
  ASSERT_TRUE(outcome.completed);
  std::vector<std::int64_t> results;
  for (const auto& op : outcome.history) {
    ASSERT_EQ(op.status, OpStatus::Ok);  // solo never bottoms
    results.push_back(op.result);
  }
  // enq 1 ok, enq 2 ok, enq 3 FULL; deq 1, deq 2, deq EMPTY.
  EXPECT_EQ(results,
            (std::vector<std::int64_t>{1, 2, Q2::kFull, 1, 2, Q2::kEmpty}));
  EXPECT_TRUE(outcome.final_state.empty());
}

// -- explorer at n=2, n=3 --------------------------------------------------

TEST(ZooQueue, UniversalExplorerCleanN2) {
  Explorer explorer(make_zoo_run_factory<Q2, Uni2>(
                        queue_explore_config<2>(2), universal_maker()),
                    bounds("zoo-queue-uni-n2"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=60000 steps=2619365 distinct_states=133885 sleep_skips=40421 "
            "preemption_skips=0 state_prunes=43844 (run budget exhausted)");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 10000)
      << result.summary();
}

TEST(ZooQueue, UniversalExplorerCleanN3) {
  Explorer explorer(make_zoo_run_factory<Q2, Uni2>(
                        queue_explore_config<2>(3), universal_maker()),
                    bounds("zoo-queue-uni-n3", 8000));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=8000 steps=635607 distinct_states=27800 sleep_skips=15903 "
            "preemption_skips=0 state_prunes=5967 (run budget exhausted)");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 5000)
      << result.summary();
}

// -- conservation under seeded random schedules ---------------------------

// Multiset of effective enqueues minus effective dequeues must equal
// the quiescent state.
void check_conservation(const ZooRunOutcome<Q2>& outcome) {
  std::vector<std::int64_t> enq, deq;
  for (const auto& op : outcome.history) {
    if (op.status != OpStatus::Ok) continue;
    if (op.op.is_enqueue && op.result != Q2::kFull) enq.push_back(op.result);
    if (!op.op.is_enqueue && op.result != Q2::kEmpty) deq.push_back(op.result);
  }
  std::vector<std::int64_t> remaining(outcome.final_state.begin(),
                                      outcome.final_state.end());
  std::vector<std::int64_t> expect = enq;
  for (const std::int64_t v : deq) {
    auto it = std::find(expect.begin(), expect.end(), v);
    ASSERT_NE(it, expect.end()) << "dequeued value " << v
                                << " was never enqueued (or dequeued twice)";
    expect.erase(it);
  }
  std::sort(expect.begin(), expect.end());
  std::sort(remaining.begin(), remaining.end());
  EXPECT_EQ(expect, remaining);
}

TEST(ZooQueue, UniversalConservationSweep) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto outcome = run_zoo_workload<Q2, Uni2>(
        queue_explore_config<2>(3, seed), universal_maker());
    ASSERT_TRUE(outcome.completed) << "seed " << seed;
    EXPECT_TRUE(outcome.linearizable)
        << "seed " << seed << ": " << outcome.oracle_summary;
    check_conservation(outcome);
  }
}

}  // namespace
}  // namespace tbwf::zoo
