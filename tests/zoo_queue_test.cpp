// Zoo object 2: the wait-free bounded MPMC queue, as specialist
// (TurnQueue: Lamport-stamped items + publish/validate/confirm turn
// claims) and as QA-universal twin over BoundedQueueOf<Cap>. Explorer
// + oracle at n = 2, 3; the dropped-claim-fence mutation must produce
// a duplicated dequeue the oracle flags; solo runs never answer
// bottom and see exact full/empty verdicts; randomized differential
// sweeps check conservation on both twins under identical seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "registers/abort_policy.hpp"
#include "sim/schedule.hpp"
#include "verify/explorer.hpp"
#include "zoo/turn_queue.hpp"
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
using Q4 = BoundedQueueOf<4>;
using Spec2 = TurnQueue<2>;
using Spec4 = TurnQueue<4>;
using Uni2 = UniversalZoo<Q2>;
using Uni4 = UniversalZoo<Q4>;

template <int Cap>
typename ZooExploredRun<BoundedQueueOf<Cap>, TurnQueue<Cap>>::Maker
specialist_maker(TurnQueueMutations m = {}) {
  return [m](sim::World& w, const typename BoundedQueueOf<Cap>::State& init) {
    auto obj = std::make_unique<TurnQueue<Cap>>(w, init);
    obj->set_mutations(m);
    return obj;
  };
}

template <int Cap>
typename ZooExploredRun<BoundedQueueOf<Cap>, UniversalZoo<BoundedQueueOf<Cap>>>::Maker
universal_maker() {
  return [](sim::World& w, const typename BoundedQueueOf<Cap>::State& init) {
    return std::make_unique<UniversalZoo<BoundedQueueOf<Cap>>>(w, init);
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
  const auto outcome = run_zoo_workload<Q2, Spec2>(config,
                                                   specialist_maker<2>());
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

// -- explorer at n=2, n=3, both twins -------------------------------------

TEST(ZooQueue, SpecialistExplorerCleanN2) {
  Explorer explorer(make_zoo_run_factory<Q2, Spec2>(
                        queue_explore_config<2>(2), specialist_maker<2>()),
                    bounds("zoo-queue-spec-n2"));
  const ExploreResult result = explorer.explore();
  // Search pin: exact ExploreStats of this configuration. They move only
  // if the explorer's search itself changes (docs/VERIFY.md).
  EXPECT_EQ(result.stats.summary(),
            "runs=382 steps=9404 distinct_states=1978 sleep_skips=1243 "
            "preemption_skips=0 state_prunes=174");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 10000)
      << result.summary();
}

TEST(ZooQueue, UniversalExplorerCleanN2) {
  Explorer explorer(make_zoo_run_factory<Q2, Uni2>(
                        queue_explore_config<2>(2), universal_maker<2>()),
                    bounds("zoo-queue-uni-n2"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=60000 steps=2619365 distinct_states=133885 sleep_skips=40421 "
            "preemption_skips=0 state_prunes=43844 (run budget exhausted)");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 10000)
      << result.summary();
}

TEST(ZooQueue, SpecialistExplorerCleanN3) {
  // n=3 on capacity 2: enqueues cross the full boundary, dequeues race
  // for turns -- the hostile corner of the protocol.
  Explorer explorer(make_zoo_run_factory<Q2, Spec2>(
                        queue_explore_config<2>(3), specialist_maker<2>()),
                    bounds("zoo-queue-spec-n3", 8000));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=8000 steps=369930 distinct_states=32923 sleep_skips=40324 "
            "preemption_skips=0 state_prunes=5108 (run budget exhausted)");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 5000)
      << result.summary();
}

TEST(ZooQueue, UniversalExplorerCleanN3) {
  Explorer explorer(make_zoo_run_factory<Q2, Uni2>(
                        queue_explore_config<2>(3), universal_maker<2>()),
                    bounds("zoo-queue-uni-n3", 8000));
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
TEST(ZooQueue, SpecialistAbortableExplorerCleanN2) {
  using Effect = registers::AlwaysAbortPolicy::Effect;
  using Spec = TurnQueue<2, qa::AbortableBase>;
  const std::pair<Effect, const char*> cases[] = {
      {Effect::Always,
       "runs=135 steps=2148 distinct_states=415 sleep_skips=162 "
       "preemption_skips=0 state_prunes=56"},
      {Effect::Never,
       "runs=117 steps=1716 distinct_states=353 sleep_skips=137 "
       "preemption_skips=0 state_prunes=48"},
  };
  for (const auto& [effect, pin] : cases) {
    registers::AlwaysAbortPolicy policy(effect);
    Explorer explorer(
        make_zoo_run_factory<Q2, Spec>(
            queue_explore_config<2>(2), make_with_policy<Q2, Spec>(&policy)),
        bounds("zoo-queue-spec-abortable-n2"));
    const ExploreResult result = explorer.explore();
    EXPECT_EQ(result.stats.summary(), pin);
    EXPECT_FALSE(result.violation_found) << result.summary();
    EXPECT_TRUE(result.clean()) << result.summary();
  }
}

// -- mutation: dropped claim fence -> duplicated dequeue ------------------

// One item, two racing dequeuers: without the validation collect both
// confirm the same turn and both return 100 -- the spec can only hand
// the single enqueued value to one of them.
ZooExploreConfig<Q4> duel_config() {
  ZooExploreConfig<Q4> config;
  config.n = 2;
  config.initial = {100};
  config.ops.resize(2);
  config.ops[0] = {Q4::dequeue()};
  config.ops[1] = {Q4::dequeue()};
  return config;
}

TEST(ZooQueue, MutationDropClaimFenceCaught) {
  Explorer explorer(
      make_zoo_run_factory<Q4, Spec4>(
          duel_config(),
          specialist_maker<4>(TurnQueueMutations{.drop_claim_fence = true})),
      bounds("zoo-queue-dropfence"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=5 steps=161 distinct_states=34 sleep_skips=8 "
            "preemption_skips=0 state_prunes=0");
  EXPECT_EQ(result.artifact.schedule.size(), 14u);
  EXPECT_EQ(result.artifact.trace_digest, 0x906287546366ba8aull);
  ASSERT_TRUE(result.violation_found) << result.summary();
  EXPECT_NE(result.artifact.violation.find("VIOLATION"), std::string::npos);
  EXPECT_FALSE(result.artifact.schedule.empty());
}

TEST(ZooQueue, IntactQueueCleanAtIdenticalBounds) {
  Explorer explorer(make_zoo_run_factory<Q4, Spec4>(duel_config(),
                                                    specialist_maker<4>()),
                    bounds("zoo-queue-fence-intact"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=34 steps=522 distinct_states=200 sleep_skips=121 "
            "preemption_skips=0 state_prunes=5");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean()) << result.summary();
}

// -- differential: conservation on both twins under identical seeds -------

// Multiset of effective enqueues minus effective dequeues must equal
// the quiescent state, per twin; cross-twin, matching Ok sets imply
// matching final multisets.
template <class S>
void check_conservation(const ZooRunOutcome<S>& outcome, const char* tag) {
  std::vector<std::int64_t> enq, deq;
  for (const auto& op : outcome.history) {
    if (op.status != OpStatus::Ok) continue;
    if (op.op.is_enqueue && op.result != S::kFull) enq.push_back(op.result);
    if (!op.op.is_enqueue && op.result != S::kEmpty) deq.push_back(op.result);
  }
  std::vector<std::int64_t> remaining(outcome.final_state.begin(),
                                      outcome.final_state.end());
  std::vector<std::int64_t> expect = enq;
  for (const std::int64_t v : deq) {
    auto it = std::find(expect.begin(), expect.end(), v);
    ASSERT_NE(it, expect.end()) << tag << ": dequeued value " << v
                                << " was never enqueued (or dequeued twice)";
    expect.erase(it);
  }
  std::sort(expect.begin(), expect.end());
  std::sort(remaining.begin(), remaining.end());
  EXPECT_EQ(expect, remaining) << tag;
}

TEST(ZooQueue, DifferentialSpecialistVsUniversal) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto config = queue_explore_config<2>(3, seed);
    const auto spec =
        run_zoo_workload<Q2, Spec2>(config, specialist_maker<2>());
    const auto uni = run_zoo_workload<Q2, Uni2>(config, universal_maker<2>());
    ASSERT_TRUE(spec.completed && uni.completed) << "seed " << seed;
    EXPECT_TRUE(spec.linearizable)
        << "seed " << seed << ": " << spec.oracle_summary;
    EXPECT_TRUE(uni.linearizable)
        << "seed " << seed << ": " << uni.oracle_summary;
    check_conservation(spec, "specialist");
    check_conservation(uni, "universal");
  }
}

}  // namespace
}  // namespace tbwf::zoo
