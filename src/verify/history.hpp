// Invocation/response histories of typed object operations.
//
// A HistoryRecorder<S> decorates calls into a qa::QaUniversal (or any
// object with the same invoke/query surface) and records, per operation,
// the invocation step, the response step, and the operation's *fate* in
// the T_QA sense:
//
//   Ok          the operation took effect exactly once and returned a
//               result -- the oracle must linearize it and the result
//               must match the sequential semantics;
//   Bottom      aborted, effect unknown -- the oracle MAY linearize it
//               (its effect can surface later via adoption) but nothing
//               constrains its result;
//   NotApplied  the paper's F -- the operation never took and never will
//               take effect; the oracle must NOT linearize it;
//   Pending     no response by the end of the run -- like Bottom, the
//               effect may or may not have happened.
//
// A later query that resolves a Bottom op's fate upgrades the recorded
// status in place (the paper's Figure 8 automaton: query reports the
// fate of the caller's last operation).
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

#include "qa/qa_object.hpp"
#include "qa/sequential_type.hpp"
#include "sim/co.hpp"
#include "sim/env.hpp"
#include "sim/types.hpp"
#include "util/assert.hpp"

namespace tbwf::verify {

enum class OpStatus : std::uint8_t { Ok, Bottom, NotApplied, Pending };

inline const char* to_string(OpStatus status) {
  switch (status) {
    case OpStatus::Ok:         return "ok";
    case OpStatus::Bottom:     return "bottom";
    case OpStatus::NotApplied: return "F";
    case OpStatus::Pending:    return "pending";
  }
  return "?";
}

inline constexpr sim::Step kNoStep = ~static_cast<sim::Step>(0);

template <qa::Sequential S>
struct HistoryOp {
  sim::Pid pid = sim::kNoPid;
  typename S::Op op{};
  typename S::Result result{};  ///< meaningful iff status == Ok
  OpStatus status = OpStatus::Pending;
  sim::Step invoked_at = 0;
  /// Step of the response that FIXED the fate (for an op resolved by a
  /// later query, the query's response step); kNoStep while pending.
  sim::Step responded_at = kNoStep;
  /// Responses delivered for this operation. A restart can re-deliver a
  /// response; >1 with equal results is benign, conflicting results are
  /// a violation the oracle reports directly.
  int responses = 0;
  bool duplicate_mismatch = false;
};

template <qa::Sequential S>
class HistoryRecorder {
 public:
  using Op = typename S::Op;
  using Result = typename S::Result;

  /// Open an operation interval; returns its history index.
  std::size_t begin(sim::Pid pid, Op op, sim::Step now) {
    HistoryOp<S> h;
    h.pid = pid;
    h.op = std::move(op);
    h.invoked_at = now;
    ops_.push_back(std::move(h));
    return ops_.size() - 1;
  }

  void end_ok(std::size_t idx, Result result, sim::Step now) {
    deliver(idx, OpStatus::Ok, std::move(result), now);
  }
  void end_bottom(std::size_t idx, sim::Step now) {
    deliver(idx, OpStatus::Bottom, Result{}, now);
  }
  void end_not_applied(std::size_t idx, sim::Step now) {
    deliver(idx, OpStatus::NotApplied, Result{}, now);
  }

  /// Record one T_QA response verbatim.
  void end(std::size_t idx, const qa::QaResponse<Result>& response,
           sim::Step now) {
    switch (response.tag) {
      case qa::QaTag::Ok:         end_ok(idx, response.value, now); break;
      case qa::QaTag::Bottom:     end_bottom(idx, now); break;
      case qa::QaTag::NotApplied: end_not_applied(idx, now); break;
    }
  }

  /// Invoke through a QA object, recording invocation + response.
  template <class QaObj>
  sim::Co<qa::QaResponse<Result>> invoke(QaObj& obj, sim::SimEnv& env,
                                         Op op) {
    const std::size_t idx = begin(env.pid(), op, env.now());
    qa::QaResponse<Result> res = co_await obj.invoke(env, std::move(op));
    end(idx, res, env.now());
    const auto p = static_cast<std::size_t>(env.pid());
    if (p >= last_invoke_.size()) last_invoke_.resize(p + 1, kNoInvoke);
    last_invoke_[p] = idx;
    co_return res;
  }

  /// Query through a QA object. A non-bottom query verdict settles the
  /// fate of the caller's last recorded invoke: Ok(v) upgrades a Bottom
  /// entry to Ok (its effect is now known to have happened, result v);
  /// F downgrades it to NotApplied (it never will).
  template <class QaObj>
  sim::Co<qa::QaResponse<Result>> query(QaObj& obj, sim::SimEnv& env) {
    qa::QaResponse<Result> res = co_await obj.query(env);
    const auto p = static_cast<std::size_t>(env.pid());
    if (p < last_invoke_.size() && last_invoke_[p] != kNoInvoke &&
        !res.bottom()) {
      HistoryOp<S>& h = ops_[last_invoke_[p]];
      if (h.status == OpStatus::Bottom || h.status == OpStatus::Pending) {
        h.status = res.ok() ? OpStatus::Ok : OpStatus::NotApplied;
        if (res.ok()) h.result = res.value;
        h.responded_at = env.now();
      }
    }
    co_return res;
  }

  const std::vector<HistoryOp<S>>& history() const { return ops_; }
  std::vector<HistoryOp<S>>& mutable_history() { return ops_; }
  std::size_t size() const { return ops_.size(); }

  /// Render the history for counterexample artifacts / test logs.
  std::string render() const {
    std::string out;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const HistoryOp<S>& h = ops_[i];
      out += "  #" + std::to_string(i) + " p" + std::to_string(h.pid) +
             " [" + std::to_string(h.invoked_at) + ", " +
             (h.responded_at == kNoStep ? std::string("?")
                                        : std::to_string(h.responded_at)) +
             "] " + to_string(h.status) + "\n";
    }
    return out;
  }

 private:
  void deliver(std::size_t idx, OpStatus status, Result result,
               sim::Step now) {
    TBWF_ASSERT(idx < ops_.size(), "history index out of range");
    HistoryOp<S>& h = ops_[idx];
    ++h.responses;
    if (h.responses > 1) {
      // Duplicate delivery (e.g. a restarted process re-observing its
      // pre-crash response). Identical fates collapse; conflicting ones
      // are flagged for the oracle.
      if (h.status != status ||
          (status == OpStatus::Ok && !same_result(h.result, result))) {
        h.duplicate_mismatch = true;
      }
      return;
    }
    h.status = status;
    h.result = std::move(result);
    h.responded_at = now;
  }

  static bool same_result(const Result& a, const Result& b) {
    if constexpr (requires(const Result& x, const Result& y) {
                    { x == y } -> std::convertible_to<bool>;
                  }) {
      return a == b;
    } else {
      return true;  // incomparable results: trust the status match
    }
  }

  static constexpr std::size_t kNoInvoke = ~std::size_t{0};

  std::vector<HistoryOp<S>> ops_;
  /// last_invoke_[pid] = history index of pid's last invoke, or kNoInvoke.
  std::vector<std::size_t> last_invoke_;
};

}  // namespace tbwf::verify
