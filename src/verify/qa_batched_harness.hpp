// Explorer harness for the BATCHED QA engine: the same bounded workload
// and oracle grading as qa_harness.hpp, run against
// BatchedQaUniversal<S, Base> so the bounded-DFS explorer can drive the
// combiner seam -- announce interleavings, drain races, adoption of
// floating batches, tombstone sealing -- and the Wing-Gong oracle can
// judge every history in terms of the INNER type S (histories are over
// S ops/results; batching is invisible to the oracle, exactly as it
// must be to clients).
//
// BatchedZoo adapts the engine onto the ZooObject contract; its
// fingerprint covers the inner construction's records and the announce
// array. The run itself is a ZooExploredRun over it, so the run
// fingerprint (each process's local step count and the history fates
// on top) is qa_harness.hpp's one rule. This header maps the engine's
// knobs onto that run, and adds the one workload the invoke/query
// surface cannot drive: producer lanes beyond n, where one process has
// several operations in flight.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "qa/qa_batched.hpp"
#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "sim/co.hpp"
#include "sim/env.hpp"
#include "sim/world.hpp"
#include "util/hash.hpp"
#include "verify/explorer.hpp"
#include "verify/qa_harness.hpp"

namespace tbwf::verify {

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
      h = detail::fold_record(h, inner.peek_record(p), fold_state_rec);
      h = detail::fold_record(h, inner.local_mine(p), fold_state_rec);
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

 private:
  static std::uint64_t fold_state_rec(std::uint64_t h,
                                      const typename Inner::StateRec& r) {
    h = util::hash_mix(h, r.seq);
    h = detail::fold_value(h, r.state.inner);
    h = util::hash_range(h, r.state.done_uid);
    h = util::hash_range(h, r.state.done_void);
    for (const Result& res : r.state.done_result) {
      h = detail::fold_value(h, res);
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

template <qa::Sequential S, class Base = qa::AtomicBase>
struct QaBatchedExploreConfig : ExploreWorkload<S> {
  /// Engine tuning: small patience keeps explored runs short.
  typename qa::BatchedQaUniversal<S, Base>::Options engine{};
  /// Protocol faults under test (all off = the real engine).
  qa::BatchMutations mutations{};
  registers::AbortPolicy* policy = nullptr;
};

/// The engine with more lanes than processes: lane l belongs to process
/// l mod n. Each process stages its ops on its lanes in turn -- an
/// announce on each lane, then a collect of each -- so it has several
/// ops in flight, and one combine can drain them together. The oracle
/// judges each op from its announce to its collect. The fingerprint is
/// the one run fingerprint, as in ZooExploredRun.
template <qa::Sequential S, class Base>
class BatchedLanesRun final : public OracleExploredRun<S> {
 public:
  using Obj = BatchedZoo<S, Base>;

  BatchedLanesRun(std::shared_ptr<const QaBatchedExploreConfig<S, Base>> config,
                  std::unique_ptr<sim::Schedule> schedule)
      : OracleExploredRun<S>(config, std::move(schedule)),
        object_(this->world_, this->workload_->initial, config->policy,
                config->engine) {
    object_.set_mutations(config->mutations);
    for (sim::Pid p = 0; p < this->workload_->n; ++p) {
      this->world_.spawn(p, "batched-lanes", [this](sim::SimEnv& env) {
        return worker(env, *this);
      });
    }
  }

  std::uint64_t fingerprint() const override {
    return this->run_fingerprint(object_.fingerprint());
  }

 private:
  static sim::Task worker(sim::SimEnv& env, BatchedLanesRun& self) {
    const sim::Pid p = env.pid();
    auto& engine = self.object_.engine();
    auto& recorder = self.history_recorder();
    const auto& ops = self.workload_->ops[p];
    std::vector<int> lanes;
    for (int l = p; l < engine.lanes(); l += self.workload_->n) {
      lanes.push_back(l);
    }
    std::vector<std::size_t> open(lanes.size());
    for (std::size_t k = 0; k < ops.size(); k += lanes.size()) {
      const std::size_t staged = std::min(lanes.size(), ops.size() - k);
      for (std::size_t j = 0; j < staged; ++j) {
        open[j] = recorder.begin(p, ops[k + j], env.now());
        bool landed = co_await engine.announce(env, lanes[j], ops[k + j]);
        while (!landed) {
          co_await env.yield();
          landed = co_await engine.write_announce(env, lanes[j]);
        }
      }
      for (std::size_t j = 0; j < staged; ++j) {
        const typename S::Result result =
            co_await engine.collect(env, lanes[j]);
        recorder.end_ok(open[j], result, env.now());
      }
    }
  }

  Obj object_;
};

/// Factory adapter for Explorer. Its runs share one copy of the config;
/// an engine with more lanes than processes runs BatchedLanesRun.
template <qa::Sequential S, class Base = qa::AtomicBase>
RunFactory make_qa_batched_run_factory(QaBatchedExploreConfig<S, Base> config) {
  if (config.engine.lanes > config.n) {
    auto shared = std::make_shared<const QaBatchedExploreConfig<S, Base>>(
        std::move(config));
    return [shared](std::unique_ptr<sim::Schedule> schedule)
               -> std::unique_ptr<ExploredRun> {
      return std::make_unique<BatchedLanesRun<S, Base>>(shared,
                                                        std::move(schedule));
    };
  }
  using Obj = BatchedZoo<S, Base>;
  const auto engine = config.engine;
  const qa::BatchMutations mutations = config.mutations;
  registers::AbortPolicy* const policy = config.policy;
  return make_zoo_run_factory<S, Obj>(
      std::move(config),
      [engine, mutations, policy](sim::World& world,
                                  const typename S::State& initial) {
        auto object = std::make_unique<Obj>(world, initial, policy, engine);
        object->set_mutations(mutations);
        return object;
      });
}

/// The canonical batched explorer workload: n processes, each issuing
/// `ops_per_process` Counter increments of distinct powers of two (any
/// credited-but-dropped increment corrupts every later Ok result).
inline QaBatchedExploreConfig<qa::Counter> batched_counter_explore_config(
    int n, int ops_per_process, std::uint64_t world_seed = 1) {
  QaBatchedExploreConfig<qa::Counter> config;
  config.n = n;
  config.world_seed = world_seed;
  config.engine.patience = 1;
  config.engine.combine_attempts = 2;
  config.ops.resize(n);
  for (int p = 0; p < n; ++p) {
    for (int k = 0; k < ops_per_process; ++k) {
      config.ops[p].push_back(
          qa::Counter::Op{std::int64_t{1} << (p * ops_per_process + k)});
    }
  }
  return config;
}

}  // namespace tbwf::verify
