// Baseline: boosting obstruction-freedom to wait-freedom assuming ALL
// processes are timely -- in the style of [7] (Fich-Luchangco-Moir-
// Shavit) and [11] (Taubenfeld), the algorithms Section 2 contrasts
// TBWF against.
//
// Mechanism (representative of that family): a global PANIC flag and a
// timestamped TOKEN. Processes run the obstruction-free object directly
// while there is no panic; on contention they panic, queue on the
// token, and the token owner runs solo while everyone else WAITS --
// with no timeout, because the scheme assumes every process is timely
// and will finish and release.
//
// This is exactly what makes it non-gracefully degrading: if a single
// untimely process acquires the token and stalls, every process --
// including all the timely ones -- blocks forever. Compare the TBWF
// stack, where untimely processes can only hurt themselves.
// bench_boosting_collapse quantifies the difference.
//
// Token acquisition uses CAS, like the boosting algorithm of [11]
// (which the paper notes uses registers and compare-and-swap) -- also a
// reminder that this baseline needs a primitive stronger than anything
// in the TBWF stack.
#pragma once

#include <cstdint>

#include "core/tbwf_object.hpp"
#include "qa/qa_universal.hpp"
#include "sim/co.hpp"
#include "sim/env.hpp"
#include "sim/world.hpp"

namespace tbwf::baselines {

template <qa::Sequential S, class Base = qa::AtomicBase>
class BoostedWf {
 public:
  using State = typename S::State;
  using Op = typename S::Op;
  using Result = typename S::Result;

  struct Token {
    std::int64_t ts = 0;
    sim::Pid owner = sim::kNoPid;
    bool operator==(const Token&) const = default;
  };

  BoostedWf(sim::World& world, State initial,
            registers::AbortPolicy* qa_policy = nullptr)
      : qa_(world, std::move(initial), qa_policy), log_(world.n()) {
    panic_ = world.make_atomic<bool>("BoostPanic", false);
    token_ = world.make_atomic<Token>("BoostToken", Token{});
  }

  sim::Co<Result> invoke(sim::SimEnv& env, Op op) {
    const sim::Pid p = env.pid();
    ++log_.started[p];
    bool next_is_query = false;
    int fast_failures = 0;

    for (;;) {
      const bool panicked = co_await env.read(panic_);
      if (!panicked) {
        // Fast path: operate directly on the OF object.
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
        if (++fast_failures < 2) {
          co_await env.yield();
          continue;
        }
        // Contention detected twice: escalate to the token.
      }

      // Slow path: queue on the token. NOTE: no timeout while waiting --
      // the scheme trusts the owner to be timely.
      std::int64_t my_ts = 0;
      for (;;) {
        const Token t = co_await env.read(token_);
        if (t.owner == sim::kNoPid) {
          my_ts = t.ts + 1;
          auto [acquired, witnessed] =
              co_await env.cas(token_, t, Token{my_ts, p});
          (void)witnessed;
          if (acquired) break;
        }
        co_await env.yield();
      }
      co_await env.write(panic_, true);

      // Owner phase: run to completion, effectively solo.
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
          co_await env.write(panic_, false);
          co_await env.write(token_, Token{my_ts, sim::kNoPid});
          log_.completions[p].push_back(env.now());
          co_return res.value;
        }
        next_is_query = res.bottom();
        co_await env.yield();
      }
    }
  }

  qa::QaUniversal<S, Base>& qa() { return qa_; }
  const core::OpLog& log() const { return log_; }
  /// Test/bench introspection: the token and panic registers.
  sim::AtomicReg<Token> token_handle() const { return token_; }
  sim::AtomicReg<bool> panic_handle() const { return panic_; }

 private:
  qa::QaUniversal<S, Base> qa_;
  sim::AtomicReg<bool> panic_;
  sim::AtomicReg<Token> token_;
  core::OpLog log_;
};

}  // namespace tbwf::baselines
