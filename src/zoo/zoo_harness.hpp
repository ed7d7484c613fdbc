// The zoo's canned explorer workloads and its differential runner.
//
// Every zoo object -- handwritten specialist or QA-universal twin --
// meets verify::ZooObject (verify/qa_harness.hpp): the T_QA surface
// plus a fingerprint and an abstract state. The specialists
// (snapshot.hpp, ledger.hpp) implement it natively;
// verify::UniversalZoo and verify::BatchedZoo adapt the QA engines onto
// it. verify::ZooExploredRun then drives ANY such object through the
// bounded-DFS explorer and grades every interleaving with the Wing-Gong
// oracle against the shared sequential spec -- the same harness code
// verifies both twins, which is the point. This header adds the n = 2,
// 3 workloads the zoo tests explore, make_with_policy for objects on
// abortable registers, and run_zoo_workload, the engine of the
// universal-vs-specialist differential check.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "sim/env.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"
#include "verify/history.hpp"
#include "verify/lin_oracle.hpp"
#include "verify/qa_harness.hpp"
#include "zoo/zoo_types.hpp"

namespace tbwf::zoo {

template <qa::Sequential S>
using ZooExploreConfig = verify::ExploreWorkload<S>;

/// Maker for an object built as Obj(world, initial, policy): a specialist
/// or universal twin on abortable registers. The policy must outlive the
/// exploration.
template <qa::Sequential S, class Obj>
  requires verify::ZooObject<Obj, S>
typename verify::ZooExploredRun<S, Obj>::Maker make_with_policy(
    registers::AbortPolicy* policy) {
  return [policy](sim::World& world, const typename S::State& initial) {
    return std::make_unique<Obj>(world, initial, policy);
  };
}

// -- canned workloads (the n=2,3 explorer configs) ------------------------

/// Each process updates its own segment with a distinct value, then
/// scans; a lost, duplicated or time-travelling update is visible in
/// every later scan.
inline ZooExploreConfig<SnapshotType> snapshot_explore_config(
    int n, int rounds = 1, std::uint64_t world_seed = 1) {
  ZooExploreConfig<SnapshotType> config;
  config.n = n;
  config.world_seed = world_seed;
  config.initial = SnapshotType::initial(n);
  config.ops.resize(n);
  for (int p = 0; p < n; ++p) {
    for (int k = 0; k < rounds; ++k) {
      config.ops[p].push_back(SnapshotType::update(
          p, std::int64_t{1} << (p * rounds + k)));
      config.ops[p].push_back(SnapshotType::scan());
    }
  }
  return config;
}

/// Each process enqueues a distinct value then dequeues once; FIFO,
/// exactly-once and the capacity bound are all observable.
template <int Cap>
ZooExploreConfig<BoundedQueueOf<Cap>> queue_explore_config(
    int n, std::uint64_t world_seed = 1) {
  ZooExploreConfig<BoundedQueueOf<Cap>> config;
  config.n = n;
  config.world_seed = world_seed;
  config.ops.resize(n);
  for (int p = 0; p < n; ++p) {
    config.ops[p].push_back(BoundedQueueOf<Cap>::enqueue(100 + p));
    config.ops[p].push_back(BoundedQueueOf<Cap>::dequeue());
  }
  return config;
}

/// All processes contend on one key (writes must order), plus a
/// per-process private key (reads must not lose bindings).
inline ZooExploreConfig<LedgerType> ledger_explore_config(
    int n, std::uint64_t world_seed = 1) {
  ZooExploreConfig<LedgerType> config;
  config.n = n;
  config.world_seed = world_seed;
  config.ops.resize(n);
  for (int p = 0; p < n; ++p) {
    config.ops[p].push_back(LedgerType::put(7, 10 + p));
    config.ops[p].push_back(LedgerType::get(7));
  }
  return config;
}

// -- differential cross-check ---------------------------------------------

template <qa::Sequential S>
struct ZooRunOutcome {
  bool completed = false;      ///< all processes finished their op lists
  bool linearizable = false;   ///< Wing-Gong verdict over the history
  std::vector<verify::HistoryOp<S>> history;
  typename S::State final_state{};  ///< object's quiescent abstract state
  std::string oracle_summary;
};

/// Run a config's workload to completion under RandomSchedule(seed)
/// and grade it: the engine of the differential universal-vs-specialist
/// cross-check (identical seeds, identical op lists, both twins must
/// linearize; matching Ok multisets must yield matching final states).
template <qa::Sequential S, class Obj>
  requires verify::ZooObject<Obj, S>
ZooRunOutcome<S> run_zoo_workload(
    const ZooExploreConfig<S>& config,
    const typename verify::ZooExploredRun<S, Obj>::Maker& maker,
    sim::Step budget = 2000000) {
  struct Driver {
    const ZooExploreConfig<S>* config = nullptr;
    Obj* object = nullptr;
    verify::HistoryRecorder<S>* recorder = nullptr;
    int done = 0;

    static sim::Task run(sim::SimEnv& env, Driver& self) {
      const sim::Pid p = env.pid();
      for (const typename S::Op& op : self.config->ops[p]) {
        auto response =
            co_await self.recorder->invoke(*self.object, env, op);
        // Chase bottoms until the fate settles (F or Ok): the
        // differential check wants fully resolved histories.
        int chases = 0;
        while (response.bottom() && chases++ < 64) {
          response = co_await self.recorder->query(*self.object, env);
          if (response.bottom()) co_await env.yield();
        }
      }
      ++self.done;
    }
  };

  sim::WorldOptions options;
  options.seed = config.world_seed;
  sim::World world(config.n,
                   std::make_unique<sim::RandomSchedule>(config.world_seed),
                   options);
  std::unique_ptr<Obj> object = maker(world, config.initial);
  verify::HistoryRecorder<S> recorder;
  Driver driver{&config, object.get(), &recorder, 0};
  for (sim::Pid p = 0; p < config.n; ++p) {
    world.spawn(p, "zoo-diff", [&driver](sim::SimEnv& env) {
      return Driver::run(env, driver);
    });
  }
  world.run_until([&] { return driver.done == config.n; }, budget);

  ZooRunOutcome<S> outcome;
  outcome.completed = driver.done == config.n;
  typename verify::LinOracle<S>::Options opt;
  opt.max_states = config.oracle_max_states;
  auto verdict = verify::LinOracle<S>(opt).check(recorder.history(),
                                                 config.initial);
  outcome.linearizable = verdict.linearizable();
  outcome.oracle_summary = verdict.summary();
  outcome.history = recorder.history();
  outcome.final_state = object->abstract_state();
  return outcome;
}

}  // namespace tbwf::zoo
