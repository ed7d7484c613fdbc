// The zoo's shared object interface and its explorer harness.
//
// Every zoo object -- handwritten specialist or QA-universal twin --
// exposes the same T_QA surface the verify stack already speaks:
//
//   sim::Co<QaResponse<Result>> invoke(SimEnv&, Op)
//   sim::Co<QaResponse<Result>> query(SimEnv&)
//   std::uint64_t fingerprint() const          (state-hash pruning)
//   S::State abstract_state() const            (quiescent differential)
//
// ZooObject pins that contract; UniversalZoo / BatchedZoo adapt
// QaUniversal / BatchedQaUniversal onto it (adding the fingerprint and
// abstract-state accessors the harnesses need); the specialists
// (snapshot.hpp, turn_queue.hpp, ledger.hpp) implement it natively.
// ZooExploredRun then drives ANY such object through the bounded-DFS
// explorer and grades every interleaving with the Wing-Gong oracle
// against the shared sequential spec -- the same harness code verifies
// both twins, which is the point.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qa/qa_batched.hpp"
#include "qa/qa_universal.hpp"
#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "sim/env.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"
#include "util/hash.hpp"
#include "verify/explorer.hpp"
#include "verify/history.hpp"
#include "verify/lin_oracle.hpp"
#include "verify/qa_harness.hpp"
#include "zoo/zoo_types.hpp"

namespace tbwf::zoo {

/// The shared zoo object contract (see file comment).
template <class Obj, class S>
concept ZooObject = qa::Sequential<S> &&
    requires(Obj o, const Obj co, sim::SimEnv& env, typename S::Op op) {
      { o.invoke(env, op) }
          -> std::same_as<sim::Co<qa::QaResponse<typename S::Result>>>;
      { o.query(env) }
          -> std::same_as<sim::Co<qa::QaResponse<typename S::Result>>>;
      { co.fingerprint() } -> std::convertible_to<std::uint64_t>;
      { co.abstract_state() } -> std::convertible_to<typename S::State>;
    };

/// QaUniversal adapted onto the zoo contract.
template <qa::Sequential S, class Base = qa::AtomicBase>
class UniversalZoo {
 public:
  using Inner = qa::QaUniversal<S, Base>;
  using Result = typename S::Result;
  using Response = qa::QaResponse<Result>;

  UniversalZoo(sim::World& world, typename S::State initial,
               registers::AbortPolicy* policy = nullptr)
      : n_(world.n()), inner_(world, std::move(initial), policy) {}

  void set_mutations(qa::QaMutations m) { inner_.set_mutations(m); }

  sim::Co<Response> invoke(sim::SimEnv& env, typename S::Op op) {
    return inner_.invoke(env, std::move(op));
  }
  sim::Co<Response> query(sim::SimEnv& env) { return inner_.query(env); }

  typename S::State abstract_state() const {
    return inner_.peek_frontier().state;
  }

  std::uint64_t fingerprint() const {
    return verify::detail::fold_qa_universal(util::kFnvOffset, inner_, n_);
  }

  Inner& inner() { return inner_; }
  const Inner& inner() const { return inner_; }

 private:
  int n_;
  Inner inner_;
};

/// BatchedQaUniversal adapted onto the zoo contract (T_QA surface:
/// invoke/query; the saturating apply() stays reachable via engine()).
template <qa::Sequential S, class Base = qa::AtomicBase>
class BatchedZoo {
 public:
  using Engine = qa::BatchedQaUniversal<S, Base>;
  using Inner = typename Engine::Inner;
  using Result = typename S::Result;
  using Response = qa::QaResponse<Result>;

  BatchedZoo(sim::World& world, typename S::State initial,
             registers::AbortPolicy* policy = nullptr,
             typename Engine::Options options = {})
      : n_(world.n()),
        engine_(world, std::move(initial), policy, options) {}

  void set_mutations(qa::BatchMutations m) { engine_.set_mutations(m); }

  sim::Co<Response> invoke(sim::SimEnv& env, typename S::Op op) {
    return engine_.invoke(env, std::move(op));
  }
  sim::Co<Response> query(sim::SimEnv& env) { return engine_.query(env); }
  sim::Co<Result> apply(sim::SimEnv& env, typename S::Op op) {
    return engine_.apply(env, std::move(op));
  }

  typename S::State abstract_state() const {
    return engine_.inner().peek_frontier().state.inner;
  }

  std::uint64_t fingerprint() const {
    std::uint64_t h = util::kFnvOffset;
    const Inner& inner = engine_.inner();
    for (sim::Pid p = 0; p < n_; ++p) {
      h = verify::detail::fold_record(h, inner.peek_record(p), fold_state_rec);
      h = verify::detail::fold_record(h, inner.local_mine(p), fold_state_rec);
      h = fold_state_rec(h, inner.local_decided_rec(p));
      h = util::hash_mix(h, inner.round(p));
      h = fold_announce(h, engine_.peek_announce(p));
      h = fold_announce(h, engine_.local_announce(p));
    }
    for (int lane = n_; lane < engine_.lanes(); ++lane) {
      h = fold_announce(h, engine_.peek_announce(lane));
      h = fold_announce(h, engine_.local_announce(lane));
    }
    return h;
  }

  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }

 private:
  static std::uint64_t fold_state_rec(std::uint64_t h,
                                      const typename Inner::StateRec& r) {
    h = util::hash_mix(h, r.seq);
    h = verify::detail::fold_value(h, r.state.inner);
    h = util::hash_range(h, r.state.done_uid);
    h = util::hash_range(h, r.state.done_void);
    for (const Result& res : r.state.done_result) {
      h = verify::detail::fold_value(h, res);
    }
    h = util::hash_range(h, r.last_uid);
    return util::hash_range(h, r.last_result);
  }
  static std::uint64_t fold_announce(std::uint64_t h,
                                     const typename Engine::Announce& a) {
    h = util::hash_mix(h, a.uid);
    return util::hash_mix(h, a.has_op);
  }

  int n_;
  Engine engine_;
};

// -- explorer harness -----------------------------------------------------

template <qa::Sequential S>
using ZooExploreConfig = verify::ExploreWorkload<S>;

/// One bounded workload over any ZooObject, packaged as an ExploredRun.
/// The fingerprint covers the object's shared/private protocol state
/// (via its own fingerprint()), each process's local step count
/// (specialist scan loops and batched combiners carry coroutine-local
/// state -- moved counters, previous collects, drained batches --
/// invisible to the object fingerprint), and the history fates.
template <qa::Sequential S, class Obj>
  requires ZooObject<Obj, S>
class ZooExploredRun final : public verify::OracleExploredRun<S> {
 public:
  /// Builds the object under test. Receives the config's initial
  /// abstract state so the object and the oracle can never disagree
  /// about where the run starts.
  using Maker = std::function<std::unique_ptr<Obj>(
      sim::World&, const typename S::State&)>;

  ZooExploredRun(std::shared_ptr<const ZooExploreConfig<S>> config,
                 const Maker& maker, std::unique_ptr<sim::Schedule> schedule)
      : verify::OracleExploredRun<S>(std::move(config), std::move(schedule)),
        object_(maker(this->world_, this->workload_->initial)) {
    this->spawn_workload(*object_, "zoo-explore");
  }

  std::uint64_t fingerprint() const override {
    std::uint64_t h = object_->fingerprint();
    for (sim::Pid p = 0; p < this->workload_->n; ++p) {
      h = util::hash_mix(h, this->world_.local_steps(p));
    }
    return this->with_history(h);
  }

  const Obj& object() const { return *object_; }

 private:
  std::unique_ptr<Obj> object_;
};

/// Factory adapter for Explorer. Its runs share one copy of the config
/// and call one maker, which must be pure up to its World argument.
template <qa::Sequential S, class Obj>
  requires ZooObject<Obj, S>
verify::RunFactory make_zoo_run_factory(
    ZooExploreConfig<S> config,
    typename ZooExploredRun<S, Obj>::Maker maker) {
  auto shared = std::make_shared<const ZooExploreConfig<S>>(std::move(config));
  return [shared, maker = std::move(maker)](
             std::unique_ptr<sim::Schedule> schedule)
             -> std::unique_ptr<verify::ExploredRun> {
    return std::make_unique<ZooExploredRun<S, Obj>>(shared, maker,
                                                    std::move(schedule));
  };
}

/// Maker for an object built as Obj(world, initial, policy): a specialist
/// or universal twin on abortable registers. The policy must outlive the
/// exploration.
template <qa::Sequential S, class Obj>
  requires ZooObject<Obj, S>
typename ZooExploredRun<S, Obj>::Maker make_with_policy(
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
  requires ZooObject<Obj, S>
ZooRunOutcome<S> run_zoo_workload(
    const ZooExploreConfig<S>& config,
    const typename ZooExploredRun<S, Obj>::Maker& maker,
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
