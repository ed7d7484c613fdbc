// Zoo object 3: the register-based ledger/map, as specialist
// (WfLedger: single-writer append-only logs with collected Lamport
// timestamps) and as QA-universal twin over LedgerType. Explorer +
// oracle at n = 2, 3; the stale-timestamp mutation must reorder two
// sequential puts in a way the oracle flags; the ledger never aborts
// (every fate Ok); differential runs check the quiescent log binds
// exactly the Ok puts on both twins under identical seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "registers/abort_policy.hpp"
#include "sim/schedule.hpp"
#include "verify/explorer.hpp"
#include "zoo/ledger.hpp"
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

using SpecRun = ZooExploredRun<LedgerType, WfLedger<>>;
using UniLedger = UniversalZoo<LedgerType>;
using UniRun = ZooExploredRun<LedgerType, UniLedger>;

SpecRun::Maker specialist_maker(LedgerMutations m = {}) {
  return [m](sim::World& w, const LedgerType::State& init) {
    auto obj = std::make_unique<WfLedger<>>(w, init);
    obj->set_mutations(m);
    return obj;
  };
}

UniRun::Maker universal_maker() {
  return [](sim::World& w, const LedgerType::State& init) {
    return std::make_unique<UniLedger>(w, init);
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

TEST(ZooLedger, SpecialistExplorerCleanN2) {
  Explorer explorer(make_zoo_run_factory<LedgerType, WfLedger<>>(
                        ledger_explore_config(2), specialist_maker()),
                    bounds("zoo-ledger-spec-n2"));
  const ExploreResult result = explorer.explore();
  // Search pin: exact ExploreStats of this configuration. They move only
  // if the explorer's search itself changes (docs/VERIFY.md).
  EXPECT_EQ(result.stats.summary(),
            "runs=24 steps=289 distinct_states=115 sleep_skips=65 "
            "preemption_skips=0 state_prunes=0");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 10000)
      << result.summary();
}

TEST(ZooLedger, UniversalExplorerCleanN2) {
  Explorer explorer(make_zoo_run_factory<LedgerType, UniLedger>(
                        ledger_explore_config(2), universal_maker()),
                    bounds("zoo-ledger-uni-n2"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=60000 steps=2619365 distinct_states=133885 sleep_skips=40421 "
            "preemption_skips=0 state_prunes=43844 (run budget exhausted)");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 10000)
      << result.summary();
}

TEST(ZooLedger, SpecialistExplorerCleanN3) {
  Explorer explorer(make_zoo_run_factory<LedgerType, WfLedger<>>(
                        ledger_explore_config(3), specialist_maker()),
                    bounds("zoo-ledger-spec-n3", 8000));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=2166 steps=49605 distinct_states=8828 sleep_skips=10972 "
            "preemption_skips=0 state_prunes=216");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean() || result.stats.runs >= 5000)
      << result.summary();
}

TEST(ZooLedger, UniversalExplorerCleanN3) {
  Explorer explorer(make_zoo_run_factory<LedgerType, UniLedger>(
                        ledger_explore_config(3), universal_maker()),
                    bounds("zoo-ledger-uni-n3", 8000));
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
TEST(ZooLedger, SpecialistAbortableExplorerCleanN2) {
  using Effect = registers::AlwaysAbortPolicy::Effect;
  using Spec = WfLedger<qa::AbortableBase>;
  const std::pair<Effect, const char*> cases[] = {
      {Effect::Always,
       "runs=49 steps=565 distinct_states=141 sleep_skips=65 "
       "preemption_skips=0 state_prunes=17"},
      {Effect::Never,
       "runs=49 steps=565 distinct_states=141 sleep_skips=65 "
       "preemption_skips=0 state_prunes=17"},
  };
  for (const auto& [effect, pin] : cases) {
    registers::AlwaysAbortPolicy policy(effect);
    Explorer explorer(
        make_zoo_run_factory<LedgerType, Spec>(
            ledger_explore_config(2),
            make_with_policy<LedgerType, Spec>(&policy)),
        bounds("zoo-ledger-spec-abortable-n2"));
    const ExploreResult result = explorer.explore();
    EXPECT_EQ(result.stats.summary(), pin);
    EXPECT_FALSE(result.violation_found) << result.summary();
    EXPECT_TRUE(result.clean()) << result.summary();
  }
}

// -- mutation: stale timestamps -> sequential puts reorder ----------------

// p0 puts twice (local ts 1, 2 under the mutation); p1 puts once
// (local ts 1) then reads. In the schedule where p1 runs strictly
// after p0, real time forces get(7) = 30, but the mutated timestamps
// rank p0's second put highest and the get returns 20.
ZooExploreConfig<LedgerType> reorder_config() {
  ZooExploreConfig<LedgerType> config;
  config.n = 2;
  config.ops.resize(2);
  config.ops[0] = {LedgerType::put(7, 10), LedgerType::put(7, 20)};
  config.ops[1] = {LedgerType::put(7, 30), LedgerType::get(7)};
  return config;
}

TEST(ZooLedger, MutationStaleTsCaught) {
  Explorer explorer(make_zoo_run_factory<LedgerType, WfLedger<>>(
                        reorder_config(),
                        specialist_maker(LedgerMutations{.stale_ts = true})),
                    bounds("zoo-ledger-stalets"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=1 steps=65 distinct_states=11 sleep_skips=0 "
            "preemption_skips=0 state_prunes=0");
  EXPECT_EQ(result.artifact.schedule.size(), 10u);
  EXPECT_EQ(result.artifact.trace_digest, 0x330bdccf20c51d2eull);
  ASSERT_TRUE(result.violation_found) << result.summary();
  EXPECT_NE(result.artifact.violation.find("VIOLATION"), std::string::npos);
  EXPECT_FALSE(result.artifact.schedule.empty());
}

TEST(ZooLedger, IntactLedgerCleanAtIdenticalBounds) {
  Explorer explorer(make_zoo_run_factory<LedgerType, WfLedger<>>(
                        reorder_config(), specialist_maker()),
                    bounds("zoo-ledger-ts-intact"));
  const ExploreResult result = explorer.explore();
  EXPECT_EQ(result.stats.summary(),
            "runs=44 steps=599 distinct_states=179 sleep_skips=99 "
            "preemption_skips=0 state_prunes=3");
  EXPECT_FALSE(result.violation_found) << result.summary();
  EXPECT_TRUE(result.clean()) << result.summary();
}

// -- the specialist never aborts ------------------------------------------

TEST(ZooLedger, SpecialistEveryFateOk) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto outcome = run_zoo_workload<LedgerType, WfLedger<>>(
        ledger_explore_config(3, seed), specialist_maker());
    ASSERT_TRUE(outcome.completed) << "seed " << seed;
    for (const auto& op : outcome.history) {
      EXPECT_EQ(op.status, OpStatus::Ok) << "seed " << seed;
    }
  }
}

// -- differential: quiescent log binds exactly the Ok puts ----------------

using Pair = std::pair<std::int64_t, std::int64_t>;

std::vector<Pair> pairs_of(const LedgerType::State& state) {
  std::vector<Pair> out;
  for (std::size_t i = 0; i + 1 < state.size(); i += 2) {
    out.emplace_back(state[i], state[i + 1]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

template <class S>
std::vector<Pair> ok_puts(const ZooRunOutcome<S>& outcome) {
  std::vector<Pair> out;
  for (const auto& op : outcome.history) {
    if (op.status == OpStatus::Ok && op.op.is_put) {
      out.emplace_back(op.op.key, op.op.value);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ZooLedger, DifferentialSpecialistVsUniversal) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto config = ledger_explore_config(2, seed);
    const auto spec = run_zoo_workload<LedgerType, WfLedger<>>(
        config, specialist_maker());
    const auto uni = run_zoo_workload<LedgerType, UniLedger>(
        config, universal_maker());
    ASSERT_TRUE(spec.completed && uni.completed) << "seed " << seed;
    EXPECT_TRUE(spec.linearizable)
        << "seed " << seed << ": " << spec.oracle_summary;
    EXPECT_TRUE(uni.linearizable)
        << "seed " << seed << ": " << uni.oracle_summary;
    // Each twin's quiescent log binds exactly its Ok puts (as a pair
    // multiset; the append order is the twin's own linearization).
    EXPECT_EQ(pairs_of(spec.final_state), ok_puts(spec)) << "seed " << seed;
    EXPECT_EQ(pairs_of(uni.final_state), ok_puts(uni)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tbwf::zoo
