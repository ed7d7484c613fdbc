// The TBWF transformation -- Section 7, Figure 7 (Theorem 14).
//
// Given Omega-Delta and a wait-free query-abortable object O_QA, the
// transformation yields a timeliness-based wait-free implementation of
// the underlying type T:
//
//   invoke(op):
//     wait until LEADER != self        (canonical use of Omega-Delta;
//                                       Definition 6 -- without this, a
//                                       timely process could monopolize
//                                       the object forever)
//     CANDIDATE := true
//     repeat:
//       if LEADER = self:
//         run op / query on O_QA per the Figure 8 automaton:
//           normal response v  -> CANDIDATE := false; return v
//           bottom             -> next operation is `query`
//           F                  -> retry op
//
// Timely permanent candidates win the leadership infinitely often and,
// while leading, run effectively solo on O_QA (non-leaders back off), so
// their operations succeed; the canonical wait rotates leadership among
// all timely processes, making each of them wait-free.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "omega/omega.hpp"
#include "qa/qa_universal.hpp"
#include "sim/co.hpp"
#include "sim/env.hpp"
#include "util/metrics.hpp"

namespace tbwf::core {

/// Per-process operation bookkeeping used by the progress checkers and
/// benches: completion step of every finished operation.
struct OpLog {
  explicit OpLog(int n) : completions(n), started(n, 0) {}

  std::vector<std::vector<sim::Step>> completions;
  std::vector<std::uint64_t> started;

  std::uint64_t completed(sim::Pid p) const {
    return completions[p].size();
  }
};

template <qa::Sequential S, class Base = qa::AtomicBase>
class TbwfObject {
 public:
  using State = typename S::State;
  using Op = typename S::Op;
  using Result = typename S::Result;

  /// Maps a pid to that process's Omega-Delta interface variables --
  /// works with either implementation (OmegaRegisters / OmegaAbortable).
  using OmegaIoProvider = std::function<omega::OmegaIO&(sim::Pid)>;

  TbwfObject(sim::World& world, State initial, OmegaIoProvider omega_io,
             registers::AbortPolicy* qa_policy = nullptr)
      : qa_(world, std::move(initial), qa_policy),
        omega_io_(std::move(omega_io)),
        log_(world.n()) {}

  /// Disable the canonical wait (Figure 7 line 2). FOR EXPERIMENTS ONLY:
  /// demonstrates the monopolization failure the paper warns about.
  void set_canonical(bool canonical) { canonical_ = canonical; }

  /// Execute `op`; returns only when the operation took effect. Under
  /// TBWF this terminates in a bounded number of the caller's steps
  /// whenever the caller is timely.
  sim::Co<Result> invoke(sim::SimEnv& env, Op op) {
    const sim::Pid p = env.pid();
    omega::OmegaIO& io = omega_io_(p);
    ++log_.started[p];

    if (canonical_) {
      while (io.leader == p) co_await env.yield();            // line 2
    }
    io.candidate = true;                                      // line 3
    bool next_is_query = false;                               // op' = op
    for (;;) {                                                // line 5
      if (io.leader == p) {                                   // line 6
        // if/else, not ?:: GCC 12 double-destroys the response when
        // both arms of a conditional co_await a vector-valued Result.
        qa::QaResponse<Result> res;
        if (next_is_query) {
          res = co_await qa_.query(env);
        } else {
          res = co_await qa_.invoke(env, op);                 // line 7
        }
        if (res.ok()) {                                       // line 8
          io.candidate = false;
          log_.completions[p].push_back(env.now());
          co_return res.value;
        }
        if (res.bottom()) next_is_query = true;               // line 9
        if (res.not_applied()) next_is_query = false;         // line 10
      } else {
        co_await env.yield();
      }
    }
  }

  qa::QaUniversal<S, Base>& qa() { return qa_; }
  const OpLog& log() const { return log_; }

 private:
  qa::QaUniversal<S, Base> qa_;
  OmegaIoProvider omega_io_;
  OpLog log_;
  bool canonical_ = true;
};

}  // namespace tbwf::core
