// The explorer harness: bounded workloads over the QA universal
// construction and every zoo object, packaged as ExploredRuns so the
// schedule explorer can enumerate a run's interleavings and grade each
// one with the linearizability oracle.
//
// OracleExploredRun holds what every run shares: the world, the bounded
// workload (each process runs its ExploreWorkload op list through a
// HistoryRecorder), the oracle verdict and the one run fingerprint
// rule -- the object's fingerprint, then each process's local step
// count, then the history fates. ZooExploredRun drives any ZooObject
// through it. UniversalZoo adapts QaUniversal onto that contract, and
// make_qa_run_factory runs the QA construction as one more zoo object.
// qa_batched_harness.hpp adapts the batched engine the same way, and
// zoo/zoo_harness.hpp holds the zoo's canned workloads. The fingerprint
// covers everything the oracle verdict depends on up to operation
// intervals (which state-hash pruning deliberately abstracts; see
// explorer.hpp).
#pragma once

#include <concepts>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "qa/qa_universal.hpp"
#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "sim/env.hpp"
#include "sim/world.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "verify/explorer.hpp"
#include "verify/history.hpp"
#include "verify/lin_oracle.hpp"

namespace tbwf::verify {

namespace detail {

template <class T>
  requires std::is_integral_v<T>
std::uint64_t fold_value(std::uint64_t h, T v) {
  return util::hash_mix(h, v);
}
template <class T>
std::uint64_t fold_value(std::uint64_t h, const std::vector<T>& v) {
  return util::hash_range(h, v);
}
template <class T>
std::uint64_t fold_value(std::uint64_t h, const std::deque<T>& v) {
  return util::hash_range(h, v);
}
inline std::uint64_t fold_value(std::uint64_t h,
                                const qa::CasCell::Result& r) {
  return util::hash_mix(util::hash_mix(h, r.success), r.old_value);
}
inline std::uint64_t fold_value(std::uint64_t h,
                                const qa::OnceRegister::Result& r) {
  return util::hash_mix(util::hash_mix(h, r.won), r.value);
}

/// A QA round token (promised or accepted).
template <class Token>
std::uint64_t fold_token(std::uint64_t h, const Token& t) {
  h = util::hash_mix(h, t.seq);
  h = util::hash_mix(h, t.round);
  return util::hash_mix(h, t.pid);
}

/// A QA slot record; `fold_state_rec` folds the two states it points at.
template <class Record, class FoldStateRec>
std::uint64_t fold_record(std::uint64_t h, const Record& rec,
                          FoldStateRec fold_state_rec) {
  h = fold_token(h, rec.promised);
  h = fold_token(h, rec.accepted);
  h = fold_state_rec(h, *rec.accepted_state);
  return fold_state_rec(h, *rec.decided);
}

/// The object part of every QaUniversal fingerprint: each process's
/// shared record and private protocol state.
template <qa::Sequential S, class Base>
std::uint64_t fold_qa_universal(std::uint64_t h,
                                const qa::QaUniversal<S, Base>& object,
                                int n) {
  const auto fold_state_rec =
      [](std::uint64_t acc,
         const typename qa::QaUniversal<S, Base>::StateRec& r) {
        acc = util::hash_mix(acc, r.seq);
        acc = fold_value(acc, r.state);
        acc = util::hash_range(acc, r.last_uid);
        acc = util::hash_mix(acc, r.last_result.size());
        for (const typename S::Result& res : r.last_result) {
          acc = fold_value(acc, res);
        }
        return acc;
      };
  for (sim::Pid p = 0; p < n; ++p) {
    h = fold_record(h, object.peek_record(p), fold_state_rec);
    h = fold_record(h, object.local_mine(p), fold_state_rec);
    h = fold_state_rec(h, object.local_decided_rec(p));
    h = util::hash_mix(h, object.round(p));
    h = util::hash_mix(h, object.pending_uid(p));
    h = util::hash_mix(h, object.pending_slot(p));
    h = util::hash_mix(h, object.last_real_uid(p));
  }
  return h;
}

/// History fates matter to the verdict; intervals are abstracted
/// (states merged across depths -- the documented best-effort cut).
template <class S>
std::uint64_t fold_history(std::uint64_t h,
                           const std::vector<HistoryOp<S>>& history) {
  for (const HistoryOp<S>& op : history) {
    h = util::hash_mix(h, op.pid);
    h = util::hash_mix(h, op.status);
    h = util::hash_mix(h, op.responses);
    if (op.status == OpStatus::Ok) h = fold_value(h, op.result);
  }
  return h;
}

}  // namespace detail

/// The bounded workload every explorer harness runs.
template <qa::Sequential S>
struct ExploreWorkload {
  int n = 2;
  std::uint64_t world_seed = 1;
  typename S::State initial{};
  /// ops[p] = the operations process p issues, in order.
  std::vector<std::vector<typename S::Op>> ops;
  /// Chase each bottom response with one query to resolve its fate.
  bool query_to_resolve = true;
  /// Oracle node budget per run.
  std::uint64_t oracle_max_states = 200000;
};

/// What every oracle-graded explorer harness shares: the world, the
/// workload and the Wing-Gong verdict. Each process runs its op list
/// through a HistoryRecorder; a bottom response is optionally chased
/// with one query so the recorded fate is as resolved as the protocol
/// allows. A harness adds the object under test and the fingerprint.
template <qa::Sequential S>
class OracleExploredRun : public ExploredRun {
 public:
  sim::World& world() override { return world_; }
  std::uint64_t seed() const override { return workload_->world_seed; }

  std::string check() override {
    typename LinOracle<S>::Options opt;
    opt.max_states = workload_->oracle_max_states;
    oracle_ =
        LinOracle<S>(opt).check(recorder_.history(), workload_->initial);
    if (oracle_.linearizable()) return {};
    return oracle_.summary();
  }

  std::string describe() const override {
    std::ostringstream out;
    out << "history (" << recorder_.size() << " ops):\n"
        << recorder_.render();
    out << "oracle: " << oracle_.summary() << "\n";
    return out.str();
  }

  const HistoryRecorder<S>& recorder() const { return recorder_; }

 protected:
  /// Every run of one factory shares its workload; none copies it.
  OracleExploredRun(std::shared_ptr<const ExploreWorkload<S>> workload,
                    std::unique_ptr<sim::Schedule> schedule)
      : workload_(std::move(workload)),
        world_(workload_->n, std::move(schedule),
               world_options(*workload_)) {
    TBWF_ASSERT(static_cast<int>(workload_->ops.size()) == workload_->n,
                "explore config needs one op list per process");
  }

  /// Start every process's workload against `object`.
  template <class Obj>
  void spawn_workload(Obj& object, const char* name) {
    for (sim::Pid p = 0; p < workload_->n; ++p) {
      world_.spawn(p, name, [this, &object](sim::SimEnv& env) {
        return worker(env, *this, object);
      });
    }
  }

  /// The run fingerprint: `object_fp`, then each process's local step
  /// count, then the history fates. The step counts stand in for the
  /// state no object fingerprint folds: QaUniversal's read-pass view, a
  /// specialist's scan loop, a combiner's drained batch. Without them
  /// pruning merges states that lead to different outcomes
  /// (tests/explorer_soundness_test.cpp).
  std::uint64_t run_fingerprint(std::uint64_t object_fp) const {
    std::uint64_t h = object_fp;
    for (sim::Pid p = 0; p < workload_->n; ++p) {
      h = util::hash_mix(h, world_.local_steps(p));
    }
    return detail::fold_history(h, recorder_.history());
  }

  /// For a harness whose processes record their operations themselves.
  HistoryRecorder<S>& history_recorder() { return recorder_; }

  const std::shared_ptr<const ExploreWorkload<S>> workload_;
  sim::World world_;

 private:
  static sim::WorldOptions world_options(const ExploreWorkload<S>& workload) {
    sim::WorldOptions options;
    options.track_accesses = true;
    options.seed = workload.world_seed;
    return options;
  }

  template <class Obj>
  static sim::Task worker(sim::SimEnv& env, OracleExploredRun& self,
                          Obj& object) {
    const sim::Pid p = env.pid();
    for (const typename S::Op& op : self.workload_->ops[p]) {
      auto response = co_await self.recorder_.invoke(object, env, op);
      if (self.workload_->query_to_resolve && response.bottom()) {
        (void)co_await self.recorder_.query(object, env);
      }
    }
  }

  HistoryRecorder<S> recorder_;
  OracleResult oracle_;
};

/// The object contract every explored run drives: the T_QA surface
/// (invoke/query), a fingerprint of the object's shared and private
/// protocol state (state-hash pruning) and its abstract state once
/// quiescent (the zoo's differential check).
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

/// One bounded workload over any ZooObject, packaged as an ExploredRun.
template <qa::Sequential S, class Obj>
  requires ZooObject<Obj, S>
class ZooExploredRun final : public OracleExploredRun<S> {
 public:
  /// Builds the object under test. Receives the workload's initial
  /// abstract state so the object and the oracle can never disagree
  /// about where the run starts.
  using Maker = std::function<std::unique_ptr<Obj>(
      sim::World&, const typename S::State&)>;

  ZooExploredRun(std::shared_ptr<const ExploreWorkload<S>> workload,
                 const Maker& maker, std::unique_ptr<sim::Schedule> schedule)
      : OracleExploredRun<S>(std::move(workload), std::move(schedule)),
        object_(maker(this->world_, this->workload_->initial)) {
    this->spawn_workload(*object_, "zoo-explore");
  }

  std::uint64_t fingerprint() const override {
    return this->run_fingerprint(object_->fingerprint());
  }

 private:
  std::unique_ptr<Obj> object_;
};

/// Factory adapter for Explorer. Its runs share one copy of the
/// workload and call one maker, which must be pure up to its World
/// argument.
template <qa::Sequential S, class Obj>
  requires ZooObject<Obj, S>
RunFactory make_zoo_run_factory(ExploreWorkload<S> workload,
                                typename ZooExploredRun<S, Obj>::Maker maker) {
  auto shared = std::make_shared<const ExploreWorkload<S>>(std::move(workload));
  return [shared, maker = std::move(maker)](
             std::unique_ptr<sim::Schedule> schedule)
             -> std::unique_ptr<ExploredRun> {
    return std::make_unique<ZooExploredRun<S, Obj>>(shared, maker,
                                                    std::move(schedule));
  };
}

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
    return detail::fold_qa_universal(util::kFnvOffset, inner_, n_);
  }

 private:
  int n_;
  Inner inner_;
};

template <qa::Sequential S, class Base = qa::AtomicBase>
struct QaExploreConfig : ExploreWorkload<S> {
  /// Protocol faults under test (all off = the real protocol).
  qa::QaMutations mutations{};
  /// Abort policy for AbortableBase stacks (must outlive the runs).
  registers::AbortPolicy* policy = nullptr;
};

/// The QA construction as an explored run: a ZooExploredRun over
/// UniversalZoo. Its runs share one copy of the workload; any policy
/// pointer the config carries must outlive the exploration.
template <qa::Sequential S, class Base = qa::AtomicBase>
RunFactory make_qa_run_factory(QaExploreConfig<S, Base> config) {
  using Obj = UniversalZoo<S, Base>;
  const qa::QaMutations mutations = config.mutations;
  registers::AbortPolicy* const policy = config.policy;
  return make_zoo_run_factory<S, Obj>(
      std::move(config),
      [mutations, policy](sim::World& world,
                          const typename S::State& initial) {
        auto object = std::make_unique<Obj>(world, initial, policy);
        object->set_mutations(mutations);
        return object;
      });
}

/// Convenience: n processes, each issuing `ops_per_process` Counter
/// increments of distinct deltas -- the canonical explorer workload.
inline QaExploreConfig<qa::Counter> counter_explore_config(
    int n, int ops_per_process, std::uint64_t world_seed = 1) {
  QaExploreConfig<qa::Counter> config;
  config.n = n;
  config.world_seed = world_seed;
  config.ops.resize(n);
  for (int p = 0; p < n; ++p) {
    for (int k = 0; k < ops_per_process; ++k) {
      // Distinct powers of two: any lost or duplicated increment is
      // visible in every later Ok result.
      config.ops[p].push_back(
          qa::Counter::Op{std::int64_t{1} << (p * ops_per_process + k)});
    }
  }
  return config;
}

}  // namespace tbwf::verify
