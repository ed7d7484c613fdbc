// Real-threads backend of the query-abortable universal construction.
//
// There is one protocol: qa::QaUniversal (qa/qa_universal.hpp), the
// coroutine the schedule explorer and the Wing-Gong oracle check. This
// header runs it on std::threads. RtBase is its base-register policy:
// try-lock abortable registers (RtAbortableReg) whose awaiters have
// already done their operation when the coroutine awaits them, so
// Co::run_inline() completes every operation on the calling thread with
// no scheduler. RtFront is the front that threads call by id;
// RtQaUniversal is it over qa::QaUniversal, and the zoo specialists
// (zoo/snapshot.hpp, turn_queue.hpp, ledger.hpp) run through it too.
//
// A base-register abort -- the cell was busy -- simply aborts the
// attempt, exactly like the simulator's AbortableBase. Solo operations
// never abort (an uncontended try-lock always succeeds).
//
// Threading model: thread t owns REG[t] (single writer) and its
// cache-line-aligned slice of the construction's per-process state;
// cross-thread communication goes exclusively through the registers.
//
// Records carry their two states by pointer, and a state is immutable
// once its pointer is first written to a register. The publication edge
// is the cell's release/acquire pair (docs/MODEL.md, "The rt memory
// model"); reference counts are shared_ptr's own atomics. Those are
// the bulk of a solo operation's cost once the process runs a second
// thread, so the read pass takes a reference only for a record that
// changed: RtAbortableReg::read_into leaves an equal view slot as it is.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qa/qa_universal.hpp"
#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "rt/rt_registers.hpp"
#include "sim/types.hpp"
#include "util/assert.hpp"

namespace tbwf::rt {

/// The calling thread as the construction's process environment.
struct RtEnv {
  sim::Pid tid = 0;

  sim::Pid pid() const { return tid; }
  /// Threads share no step clock. Only the decide hook reads this, and
  /// only the simulator's batched engine sets one.
  sim::Step now() const { return 0; }
};

/// Base-register policy over RtAbortableReg. Every awaiter it hands out
/// has already performed its operation: await_ready() is true and the
/// coroutine never suspends.
struct RtBase {
  template <class Rec>
  using Reg = std::unique_ptr<RtAbortableReg<Rec>>;
  using Env = RtEnv;
  struct Home {
    int n = 0;
  };
  /// No explorer fingerprints a threaded run.
  static constexpr bool kExplored = false;

  /// The result of an operation that completed before the await.
  template <class T>
  struct Done {
    T value;
    bool await_ready() const noexcept { return true; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    T await_resume() { return std::move(value); }
  };

  static int n(const Home& home) { return home.n; }

  /// A local step costs nothing on threads.
  static std::suspend_never yield(Env&) { return {}; }

  template <class Rec>
  static Reg<Rec> make(Home&, const std::string& /*name*/, Rec init,
                       registers::AbortPolicy*, sim::Pid /*writer*/) {
    return std::make_unique<RtAbortableReg<Rec>>(std::move(init));
  }
  template <class Rec>
  static Done<std::optional<Rec>> read(Env&, const Reg<Rec>& r) {
    return {r->read()};
  }
  /// Sink write of an rvalue: the record it displaces, possibly the last
  /// holder of a state, dies after the cell is released.
  template <class Rec>
  static Done<bool> write(Env&, const Reg<Rec>& r, Rec&& v) {
    return {r->write(std::move(v))};
  }
  /// Write of an lvalue: it is copied into the storage of the record it
  /// displaces, so buffers that fit are reused, and the caller keeps it
  /// (a zoo specialist parks it if the write aborts).
  template <class Rec>
  static Done<bool> write(Env&, const Reg<Rec>& r, const Rec& v) {
    return {r->write(v)};
  }
  /// Retries until the cell is free. For quiescent introspection only:
  /// under contention it spins.
  template <class Rec>
  static Rec peek(const Home&, const Reg<Rec>& r) {
    for (;;) {
      if (auto v = r->read()) return std::move(*v);
    }
  }
  /// SimBase::read_pass as a plain loop over the other records: the
  /// caller's own slot is skipped, as in the simulator. A peer record
  /// equal to its view slot is not copied, so a pass over unchanged
  /// records updates no reference count.
  template <class Rec>
  static Done<bool> read_pass(Env&, const std::vector<Reg<Rec>>& regs,
                              sim::Pid self, std::vector<Rec>& view) {
    for (sim::Pid q = 0; q < static_cast<sim::Pid>(regs.size()); ++q) {
      if (q == self) continue;
      if (!regs[q]->read_into(view[q])) return {false};
    }
    return {true};
  }
};

/// A coroutine object written over a base-register policy, run on
/// threads: `Inner` is instantiated on RtBase, thread `tid` drives
/// process `tid`, and each call runs one operation to completion inline.
/// RtQaUniversal adds the QA construction's frontier accessors; the zoo
/// specialists run through this front as they are.
template <class Inner>
class RtFront {
 public:
  using State = typename Inner::State;
  using Op = typename Inner::Op;
  using Response = typename Inner::Response;
  using Tid = std::uint32_t;

  RtFront(int nthreads, State initial)
      : home_{nthreads}, inner_(home_, std::move(initial)) {
    TBWF_ASSERT(nthreads >= 1, "need at least one thread");
  }
  /// inner_ refers to home_.
  RtFront(const RtFront&) = delete;
  RtFront& operator=(const RtFront&) = delete;

  /// Apply `op`; returns bottom under contention. Called by thread
  /// `tid` only (each tid must be driven by a single thread).
  Response invoke(Tid tid, Op op) {
    RtEnv env{pid_of(tid)};
    return inner_.invoke(env, std::move(op)).run_inline();
  }

  /// Fate of tid's last invoke (Ok / F / bottom).
  Response query(Tid tid) {
    RtEnv env{pid_of(tid)};
    return inner_.query(env).run_inline();
  }

  int n() const { return inner_.n(); }

 protected:
  sim::Pid pid_of(Tid tid) const {
    TBWF_ASSERT(tid < static_cast<Tid>(inner_.n()), "tid out of range");
    return static_cast<sim::Pid>(tid);
  }

  RtBase::Home home_;
  Inner inner_;
};

/// qa::QaUniversal on threads.
template <qa::Sequential S>
class RtQaUniversal : public RtFront<qa::QaUniversal<S, RtBase>> {
  using Front = RtFront<qa::QaUniversal<S, RtBase>>;

 public:
  using Inner = qa::QaUniversal<S, RtBase>;
  using Result = typename S::Result;
  using StateRec = typename Inner::StateRec;
  using StatePtr = typename Inner::StatePtr;
  using typename Front::Tid;

  using Front::Front;

  /// One try-lock read pass over all records: the decided frontier as
  /// currently visible to `tid` (null if a base read aborted).
  /// Refreshes tid's local decided cache. Called by tid's thread only.
  StatePtr read_frontier(Tid tid) {
    RtEnv env{this->pid_of(tid)};
    return this->inner_.read_frontier(env).run_inline();
  }

  /// The highest decided record tid itself has observed. Called by
  /// tid's thread only (per-thread slice, no synchronization).
  const StatePtr& local_decided(Tid tid) const {
    return this->inner_.local_decided(this->pid_of(tid));
  }

  /// Snapshot of the decided frontier. Reads every thread's local cache,
  /// so call it only while no thread is operating (before the workers
  /// start or after they are joined).
  StateRec frontier_snapshot() const { return this->inner_.peek_frontier(); }
};

}  // namespace tbwf::rt
