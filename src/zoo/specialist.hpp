// What the zoo's register specialists (snapshot.hpp, ledger.hpp) share:
// the per-process slice and the rule for a base operation that aborted.
//
// Each specialist is one coroutine protocol written over a base-register
// policy (qa/qa_universal.hpp): qa::AtomicBase and qa::AbortableBase in
// the simulator, rt::RtBase (rt/rt_qa.hpp) on threads. Every record is
// single-writer: process p writes only its own. On atomic registers no
// operation fails. On abortable ones any read or write may abort, and an
// aborted write may or may not have taken effect (the spec quoted in
// PAPER.md; the rt try-lock cells only ever take the "not" branch, but
// the protocol does not rely on that). The rule, applied in one place by
// every specialist:
//
//  - an aborted read, before the operation made anything visible,
//    answers bottom with fate F;
//  - a write whose landing makes the operation visible (a segment, a
//    ledger entry) is never retracted: it is parked, and lands later;
//  - every bottom leaves at most one parked write. query, and the next
//    invoke, write it again before anything else, and query answers the
//    fate its landing decides (bottom while it keeps aborting).
//
// A parked record is the caller's whole own record, so writing it again
// is idempotent: the register holds either it or the record before it.
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "qa/qa_object.hpp"
#include "sim/co.hpp"
#include "util/cacheline.hpp"
#include "util/hash.hpp"

namespace tbwf::zoo {

/// Process p's private state in a specialist whose own record is a Rec.
/// Only p touches it, so on threads each slice owns its cache line.
template <class Rec, class Result>
struct alignas(util::kCacheLineSize) SpecialistSlice {
  using Response = qa::QaResponse<Result>;

  /// What query answers about the last operation once nothing is parked.
  Response fate = Response::make_not_applied();
  /// Digest of the values the operation in flight has read; 0 between
  /// operations. Its continuation is a function of them, so explorer
  /// state fingerprints fold it.
  std::uint64_t op_digest = 0;
  /// A write of p's own record that has not yet been seen to land.
  std::optional<Rec> parked;

  /// Ends the operation with `answer`; query will answer `final_fate`.
  Response settle(Response answer, Response final_fate) {
    fate = std::move(final_fate);
    op_digest = 0;
    return answer;
  }
  Response finish(Response ok) {
    fate = ok;
    op_digest = 0;
    return ok;
  }
  /// Bottom with nothing of this operation visible: fate F.
  Response abort() {
    return settle(Response::make_bottom(), Response::make_not_applied());
  }
  /// Bottom with `rec` parked; its landing decides `final_fate`.
  Response park(Rec rec, Response final_fate) {
    parked = std::move(rec);
    return settle(Response::make_bottom(), std::move(final_fate));
  }

  /// Folds a parked write and the fate it decides; `h` unchanged while
  /// nothing is parked.
  template <class FoldRec>
  std::uint64_t fold_parked(std::uint64_t h, FoldRec fold_rec) const {
    if (!parked) return h;
    h = fold_rec(h, *parked);
    h = util::hash_mix(h, static_cast<std::uint64_t>(fate.tag));
    if constexpr (std::is_integral_v<Result>) {
      return util::hash_mix(h, fate.value);
    } else {
      return util::hash_range(h, fate.value);
    }
  }
};

/// Awaitable: writes `me`'s parked record, if any, to its register, and
/// yields false iff that write aborted (the record stays parked). With
/// nothing parked it is ready at once and takes no step. An awaiter
/// rather than a coroutine, so landing costs no frame.
template <class Base, class Rec, class Result>
class LandParked {
 public:
  using Env = typename Base::Env;
  using Reg = typename Base::template Reg<Rec>;

  LandParked(Env& env, const Reg& reg, SpecialistSlice<Rec, Result>& me)
      : me_(me) {
    if (me.parked) {
      write_.emplace(Base::template write<Rec>(env, reg, *me.parked));
    }
  }

  bool await_ready() { return !write_ || write_->await_ready(); }
  auto await_suspend(std::coroutine_handle<> h) {
    return write_->await_suspend(h);
  }
  bool await_resume() {
    if (!write_) return true;
    if (!write_->await_resume()) return false;
    me_.parked.reset();
    return true;
  }

 private:
  using Write = decltype(Base::template write<Rec>(
      std::declval<Env&>(), std::declval<const Reg&>(), std::declval<Rec>()));

  SpecialistSlice<Rec, Result>& me_;
  std::optional<Write> write_;
};

template <class Base, class Rec, class Result>
LandParked<Base, Rec, Result> land_parked(
    typename Base::Env& env, const typename Base::template Reg<Rec>& reg,
    SpecialistSlice<Rec, Result>& me) {
  return {env, reg, me};
}

/// The specialists' query: one local step, then the fate of the last
/// operation once its parked write, if any, has landed.
template <class Base, class Rec, class Result>
sim::Co<qa::QaResponse<Result>> query_fate(
    typename Base::Env& env, const typename Base::template Reg<Rec>& reg,
    SpecialistSlice<Rec, Result>& me) {
  co_await Base::yield(env);
  // A named local, not `if (!co_await ...)`: GCC 12 miscompiles a
  // coroutine that declares no local and awaits in an if condition,
  // which then crashes before its first statement.
  const bool landed = co_await land_parked<Base>(env, reg, me);
  if (!landed) co_return qa::QaResponse<Result>::make_bottom();
  co_return me.fate;
}

}  // namespace tbwf::zoo
