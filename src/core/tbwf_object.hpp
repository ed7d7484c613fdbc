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
//
// The loop is written once for both backends, over two policies: Base,
// O_QA's registers (qa/qa_universal.hpp), and Leader, which answers
// line 2's "LEADER = self?" (leader_is_self), sets candidacy (lines 3
// and 8), answers line 6's "do I lead now?" (lead) and hands out the
// awaitable a process that may not go on waits on (back_off).
// OmegaLeader reads Omega-Delta in the simulator; rt::RtTbwfObject
// (rt/rt_tbwf.hpp) runs the loop on threads over a lease.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "omega/omega.hpp"
#include "qa/qa_universal.hpp"
#include "sim/co.hpp"
#include "sim/env.hpp"

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

/// The simulator's Leader: Omega-Delta's interface variables; a process
/// that may not go on takes one local step. It keeps the checkers'
/// OpLog: an operation starts at line 3 and completes at line 8.
class OmegaLeader {
 public:
  /// Maps a pid to that process's Omega-Delta interface variables --
  /// works with either implementation (OmegaRegisters / OmegaAbortable).
  using OmegaIoProvider = std::function<omega::OmegaIO&(sim::Pid)>;

  OmegaLeader(int n, OmegaIoProvider omega_io)
      : omega_io_(std::move(omega_io)), log_(n) {}

  bool leader_is_self(sim::SimEnv& env) const {
    return omega_io_(env.pid()).leader == env.pid();
  }
  bool lead(sim::SimEnv& env) const { return leader_is_self(env); }
  void set_candidate(sim::SimEnv& env, bool candidate) {
    const sim::Pid p = env.pid();
    omega_io_(p).candidate = candidate;
    if (candidate) {
      ++log_.started[p];
    } else {
      log_.completions[p].push_back(env.now());
    }
  }
  sim::detail::YieldOp back_off(sim::SimEnv& env) const {
    return env.yield();
  }

  const OpLog& log() const { return log_; }

 private:
  OmegaIoProvider omega_io_;
  OpLog log_;
};

template <qa::Sequential S, class Base = qa::AtomicBase,
          class Leader = OmegaLeader>
class TbwfObject {
 public:
  using Env = typename Base::Env;
  using Home = typename Base::Home;
  using State = typename S::State;
  using Op = typename S::Op;
  using Result = typename S::Result;
  using Response = Result;

  /// `leader` is the Leader's argument after the process count: the
  /// Omega-Delta provider in the simulator, the lease term on threads.
  template <class LeaderArg>
  TbwfObject(Home& home, State initial, LeaderArg leader,
             registers::AbortPolicy* qa_policy = nullptr)
      : qa_(home, std::move(initial), qa_policy),
        leader_(Base::n(home), std::move(leader)) {}

  /// Disable the canonical wait (Figure 7 line 2). FOR EXPERIMENTS ONLY:
  /// demonstrates the monopolization failure the paper warns about.
  void set_canonical(bool canonical) { canonical_ = canonical; }

  /// Execute `op`; returns only when the operation took effect. Under
  /// TBWF this terminates in a bounded number of the caller's steps
  /// whenever the caller is timely.
  ///
  /// Figure 8 is `next_is_query`, which survives leadership changes:
  /// re-invoking before a floating invoke's fate is known could
  /// double-apply the operation.
  sim::Co<Result> invoke(Env& env, Op op) {
    if (canonical_) {
      while (leader_.leader_is_self(env)) {                   // line 2
        co_await leader_.back_off(env);
      }
    }
    leader_.set_candidate(env, true);                         // line 3
    bool next_is_query = false;                               // op' = op
    for (;;) {                                                // line 5
      if (leader_.lead(env)) {                                // line 6
        // if/else, not ?:: GCC 12 double-destroys the response when
        // both arms of a conditional co_await a vector-valued Result.
        qa::QaResponse<Result> res;
        if (next_is_query) {
          res = co_await qa_.query(env);
        } else {
          res = co_await qa_.invoke(env, op);                 // line 7
        }
        if (res.ok()) {                                       // line 8
          leader_.set_candidate(env, false);
          co_return std::move(res.value);
        }
        if (res.bottom()) next_is_query = true;               // line 9
        if (res.not_applied()) next_is_query = false;         // line 10
      } else {
        co_await leader_.back_off(env);
      }
    }
  }

  qa::QaUniversal<S, Base>& qa() { return qa_; }
  Leader& leader() { return leader_; }
  const OpLog& log() const { return leader_.log(); }
  int n() const { return qa_.n(); }

 private:
  qa::QaUniversal<S, Base> qa_;
  Leader leader_;
  bool canonical_ = true;
};

}  // namespace tbwf::core
