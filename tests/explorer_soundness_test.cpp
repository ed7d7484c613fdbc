// Soundness of the explorer's state-hash pruning. For each n = 2
// configuration, a pruned search (the default options) and an exact one
// (state pruning off, sleep sets on) run the same workload, and every
// finished-run outcome the exact search reaches must appear in the
// pruned search too. A pruned search that merges two states the run
// fingerprint cannot tell apart loses the outcomes below the second.
// QaUniversal's read-pass view is such a state unless the run
// fingerprint folds each process's step count: without that fold the QA
// counter reaches 5 of its 7 outcomes, and the batched counter none.
//
// A run is finished when no process is runnable. Pruned and
// sleep-blocked leaves are graded too, but their histories are partial,
// so they are not outcomes. An outcome is each process's operations in
// program order, as (status, responses, Ok result): the history's own
// order follows begin order, which differs between equivalent
// schedules.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "qa/sequential_type.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"
#include "util/hash.hpp"
#include "verify/explorer.hpp"
#include "verify/qa_batched_harness.hpp"
#include "verify/qa_harness.hpp"
#include "zoo/ledger.hpp"
#include "zoo/snapshot.hpp"
#include "zoo/zoo_harness.hpp"

namespace tbwf::verify {
namespace {

using Outcomes = std::set<std::uint64_t>;

/// Digest of a finished history: each process's ops in program order.
template <qa::Sequential S>
std::uint64_t outcome_digest(const std::vector<HistoryOp<S>>& history,
                             int n) {
  std::uint64_t h = util::kFnvOffset;
  for (sim::Pid p = 0; p < n; ++p) {
    h = util::hash_mix(h, p);
    for (const HistoryOp<S>& op : history) {
      if (op.pid != p) continue;
      h = util::hash_mix(h, op.status);
      h = util::hash_mix(h, op.responses);
      if (op.status == OpStatus::Ok) h = detail::fold_value(h, op.result);
    }
  }
  return h;
}

/// ExploredRun decorator: records the outcome of every finished run it
/// grades.
template <qa::Sequential S>
class OutcomeRun final : public ExploredRun {
 public:
  OutcomeRun(std::unique_ptr<ExploredRun> inner, Outcomes& outcomes)
      : inner_(std::move(inner)), outcomes_(outcomes) {}

  sim::World& world() override { return inner_->world(); }
  std::uint64_t seed() const override { return inner_->seed(); }
  std::uint64_t fingerprint() const override { return inner_->fingerprint(); }
  std::string describe() const override { return inner_->describe(); }

  std::string check() override {
    std::string verdict = inner_->check();
    const sim::World& world = inner_->world();
    for (sim::Pid p = 0; p < world.n(); ++p) {
      if (world.runnable(p)) return verdict;
    }
    const auto& oracle = dynamic_cast<const OracleExploredRun<S>&>(*inner_);
    outcomes_.insert(outcome_digest(oracle.recorder().history(), world.n()));
    return verdict;
  }

 private:
  std::unique_ptr<ExploredRun> inner_;
  Outcomes& outcomes_;
};

struct Search {
  Outcomes outcomes;
  ExploreResult result;
};

template <qa::Sequential S>
Search search(const RunFactory& factory, const ExplorerOptions& options) {
  Search out;
  Explorer explorer(
      [&](std::unique_ptr<sim::Schedule> schedule)
          -> std::unique_ptr<ExploredRun> {
        return std::make_unique<OutcomeRun<S>>(factory(std::move(schedule)),
                                               out.outcomes);
      },
      options);
  out.result = explorer.explore();
  return out;
}

/// The pruned search over `factory` must complete clean and reach every
/// outcome of the exact search, which stops after `exact_runs` runs.
/// Returns the number of exact outcomes.
template <qa::Sequential S>
std::size_t expect_pruning_keeps_outcomes(const RunFactory& factory,
                                          std::size_t max_depth,
                                          std::uint64_t exact_runs) {
  ExplorerOptions pruned;
  pruned.max_depth = max_depth;
  pruned.max_runs = 60000;
  ExplorerOptions exact = pruned;
  exact.state_pruning = false;
  exact.max_runs = exact_runs;

  const Search p = search<S>(factory, pruned);
  const Search e = search<S>(factory, exact);
  EXPECT_TRUE(p.result.clean()) << p.result.summary();
  EXPECT_FALSE(e.result.violation_found) << e.result.summary();
  std::size_t reached = 0;
  for (const std::uint64_t outcome : e.outcomes) {
    reached += p.outcomes.count(outcome);
  }
  EXPECT_EQ(reached, e.outcomes.size())
      << "the pruned search reaches " << reached << " of the exact search's "
      << e.outcomes.size() << " finished outcomes\n  pruned: "
      << p.result.stats.summary() << "\n  exact: " << e.result.stats.summary();
  return e.outcomes.size();
}

TEST(PruningSoundness, QaCounterKeepsEveryOutcome) {
  // The exact search completes in 8152 runs, the pruned one in 522.
  EXPECT_EQ(expect_pruning_keeps_outcomes<qa::Counter>(
                make_qa_run_factory(counter_explore_config(2, 1)), 220, 60000),
            7u);
}

TEST(PruningSoundness, BatchedCounterKeepsEveryOutcome) {
  // The exact search does not complete within 200000 runs at n = 2; its
  // first 20000 runs are the reference (100000 reach the same 7
  // outcomes; the pruned search, which completes, reaches 11).
  EXPECT_EQ(expect_pruning_keeps_outcomes<qa::Counter>(
                make_qa_batched_run_factory(
                    batched_counter_explore_config(2, 1)),
                300, 20000),
            7u);
}

template <qa::Sequential S, class Obj>
RunFactory specialist_factory(zoo::ZooExploreConfig<S> config) {
  return make_zoo_run_factory<S, Obj>(
      std::move(config), [](sim::World& world, const typename S::State& init) {
        return std::make_unique<Obj>(world, init);
      });
}

TEST(PruningSoundness, SnapshotSpecialistKeepsEveryOutcome) {
  EXPECT_EQ((expect_pruning_keeps_outcomes<zoo::SnapshotType>(
                specialist_factory<zoo::SnapshotType, zoo::WfSnapshot<>>(
                    zoo::snapshot_explore_config(2)),
                500, 60000)),
            3u);
}

TEST(PruningSoundness, LedgerSpecialistKeepsEveryOutcome) {
  EXPECT_EQ((expect_pruning_keeps_outcomes<zoo::LedgerType>(
                specialist_factory<zoo::LedgerType, zoo::WfLedger<>>(
                    zoo::ledger_explore_config(2)),
                500, 60000)),
            3u);
}

}  // namespace
}  // namespace tbwf::verify
