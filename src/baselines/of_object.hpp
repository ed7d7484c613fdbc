// Baseline: obstruction-free-only object.
//
// The query-abortable universal object used directly with naive retry --
// no leader election, no contention management. Solo operations succeed
// (obstruction-freedom), but under contention nothing is guaranteed:
// symmetric lockstep schedules can livelock every process forever. This
// is the floor TBWF improves on; bench_graceful_degradation and
// bench_obstruction_freedom chart it.
#pragma once

#include "core/tbwf_object.hpp"
#include "qa/qa_universal.hpp"
#include "sim/co.hpp"
#include "sim/env.hpp"

namespace tbwf::baselines {

template <qa::Sequential S, class Base = qa::AtomicBase>
class OfObject {
 public:
  using State = typename S::State;
  using Op = typename S::Op;
  using Result = typename S::Result;

  OfObject(sim::World& world, State initial,
           registers::AbortPolicy* qa_policy = nullptr)
      : qa_(world, std::move(initial), qa_policy), log_(world.n()) {}

  /// Retry until the operation lands. Obstruction-free: terminates if
  /// the caller eventually runs solo; may spin forever under contention.
  sim::Co<Result> invoke(sim::SimEnv& env, Op op) {
    const sim::Pid p = env.pid();
    ++log_.started[p];
    bool next_is_query = false;
    for (;;) {
      // if/else, not ?:: GCC 12 double-destroys the response when
      // both arms of a conditional co_await a vector-valued Result.
      qa::QaResponse<Result> res;
      if (next_is_query) {
        res = co_await qa_.query(env);
      } else {
        res = co_await qa_.invoke(env, op);
      }
      if (res.ok()) {
        log_.completions[p].push_back(env.now());
        co_return res.value;
      }
      next_is_query = res.bottom();
      co_await env.yield();
    }
  }

  qa::QaUniversal<S, Base>& qa() { return qa_; }
  const core::OpLog& log() const { return log_; }

 private:
  qa::QaUniversal<S, Base> qa_;
  core::OpLog log_;
};

}  // namespace tbwf::baselines
