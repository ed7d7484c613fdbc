// Real-threads backend of the query-abortable universal construction.
//
// There is one protocol: qa::QaUniversal (qa/qa_universal.hpp), the
// coroutine the schedule explorer and the Wing-Gong oracle check. This
// header runs it on std::threads. RtBase is its base-register policy:
// try-lock abortable registers (RtAbortableReg) whose awaiters have
// already done their operation when the coroutine awaits them, so
// Co::run_inline() completes every operation on the calling thread with
// no scheduler. RtFront is the front that threads call by id;
// RtQaUniversal is it over qa::QaUniversal, RtQaBatched over the batched
// engine qa::BatchedQaUniversal (qa/qa_batched.hpp), RtTbwfObject over
// the Figure 7 object core::TbwfObject (rt/rt_tbwf.hpp), and the zoo
// specialists (zoo/snapshot.hpp, zoo/ledger.hpp) run through it too.
// The batched engine's one rt-only part, the board its waiters poll, is
// RtBase::Board; the simulator's policies have an empty one.
//
// A base-register abort -- the cell was busy -- simply aborts the
// attempt, exactly like the simulator's AbortableBase. Solo operations
// never abort (an uncontended try-lock always succeeds).
//
// Threading model: thread t owns REG[t] (single writer) and its
// cache-line-aligned slice of the construction's per-process state (and
// of the batched engine's, with the lanes it drives); cross-thread
// communication goes exclusively through the registers and the board.
//
// Records carry their two states by pointer, and a state is immutable
// once its pointer is first written to a register. The publication edge
// is the cell's release/acquire pair (docs/MODEL.md, "The rt memory
// model"); reference counts are shared_ptr's own atomics. Those are
// the bulk of a solo operation's cost once the process runs a second
// thread, so the read pass takes a reference only for a record that
// changed: RtAbortableReg::read_into leaves an equal view slot as it is.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qa/qa_batched.hpp"
#include "qa/qa_universal.hpp"
#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "rt/rt_registers.hpp"
#include "sim/types.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"

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

  /// The batched engine's board (SimBase::Board in the simulator). A
  /// waiter polls this one cell, which combiners offer each decided
  /// state to, not the records: a record read holds the record's
  /// try-lock, and could abort the publish of the combiner it waits
  /// for. Beside the cell, `latest_` names the slot of the state it
  /// holds, so a poll that finds nothing newer reads one shared word and
  /// takes no lock (a waiter preempted inside the cell would make the
  /// combiner's offer abort). The board also carries an advisory gate:
  /// a waiter that finds no combine led leads one at once, instead of
  /// spending its patience first. The gate is only a hint: a waiter
  /// whose patience runs out combines whether or not someone leads.
  template <class Ptr>
  class Board {
   public:
    using Rec = typename Ptr::element_type;

    explicit Board(const Home& home) : seen_(home.n) {}

    /// The newest state the caller has seen in the cell (null before
    /// the first offer); the caller's slot keeps it alive until its
    /// next poll. An unchanged cell costs no lock and no reference
    /// count. A poll that finds nothing new while another process leads
    /// a combine yields the CPU, which the leader may need on an
    /// oversubscribed host.
    template <class Refresh>
    Done<const Rec*> poll(Env& env, Refresh&&) {
      Ptr& seen = *seen_[env.pid()];
      // acquire pairs with the offer's release: a newer slot means the
      // cell already holds its state (or a newer one).
      const std::uint64_t latest = latest_.load(std::memory_order_acquire);
      if (latest != 0 && (seen == nullptr || seen->seq < latest)) {
        (void)cell_.read_into(seen);  // an abort keeps the older state
      } else {
        const sim::Pid leader = leader_.load(std::memory_order_relaxed);
        if (leader != sim::kNoPid && leader != env.pid()) {
          std::this_thread::yield();
        }
      }
      return {seen.get()};
    }
    /// What p's last poll saw; p's thread only.
    const Rec* seen(sim::Pid p) const { return seen_[p]->get(); }

    /// True iff no combine was led and the caller now leads one.
    bool lead(Env& env) {
      if (leader_.load(std::memory_order_relaxed) != sim::kNoPid) {
        return false;
      }
      sim::Pid idle = sim::kNoPid;
      return leader_.compare_exchange_strong(idle, env.pid(),
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed);
    }

    /// Offers `decided` after a combine (it lands only if newer than the
    /// cell's state, and is lost if the cell is busy: the next offer
    /// carries it), and ends the caller's lead if it held one.
    void offer(Env& env, const Ptr& decided) {
      (void)cell_.write_if(decided, [&] {
        // Under the cell's lock, so latest_ rises in cell order.
        if (decided->seq <= latest_.load(std::memory_order_relaxed)) {
          return false;
        }
        latest_.store(decided->seq, std::memory_order_release);
        return true;
      });
      if (leader_.load(std::memory_order_relaxed) == env.pid()) {
        leader_.store(sim::kNoPid, std::memory_order_release);
      }
    }

   private:
    RtAbortableReg<Ptr> cell_{nullptr};
    std::atomic<std::uint64_t> latest_{0};
    std::vector<util::CachelinePadded<Ptr>> seen_;
    std::atomic<sim::Pid> leader_{sim::kNoPid};
  };
};

/// A coroutine object written over a base-register policy, run on
/// threads: `Inner` is instantiated on RtBase, thread `tid` drives
/// process `tid`, and each call runs one operation to completion inline.
/// RtQaUniversal adds the QA construction's frontier accessors,
/// RtQaBatched the batched engine's surfaces and RtTbwfObject the
/// lease; the zoo specialists run through this front as they are.
template <class Inner>
class RtFront {
 public:
  using State = typename Inner::State;
  using Op = typename Inner::Op;
  using Response = typename Inner::Response;
  using Tid = std::uint32_t;

  /// `args` follow the initial state into Inner's constructor.
  template <class... Args>
  RtFront(int nthreads, State initial, Args&&... args)
      : home_{nthreads},
        inner_(home_, std::move(initial), std::forward<Args>(args)...) {
    TBWF_ASSERT(nthreads >= 1, "need at least one thread");
  }
  /// inner_ refers to home_.
  RtFront(const RtFront&) = delete;
  RtFront& operator=(const RtFront&) = delete;

  /// Apply `op` (a QA object returns bottom under contention). Called by
  /// thread `tid` only (each tid must be driven by a single thread).
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

/// qa::BatchedQaUniversal on threads. Thread `tid` is combiner `tid`
/// and owns lane `tid`; it may drive further lanes (Options::lanes) by
/// announce() and collect(). announce() spins until its single-writer
/// cell takes the write, which fails only while a combiner's drain read
/// holds the cell. A collect() answered by the thread's decided cache
/// runs no coroutine frame.
template <qa::Sequential S>
class RtQaBatched : public RtFront<qa::BatchedQaUniversal<S, RtBase>> {
  using Front = RtFront<qa::BatchedQaUniversal<S, RtBase>>;

 public:
  using Engine = qa::BatchedQaUniversal<S, RtBase>;
  using Result = typename S::Result;
  using InnerStateRec = typename Engine::InnerStateRec;
  using typename Front::Op;
  using typename Front::State;
  using typename Front::Tid;

  /// The engine's settings, defaulting to the patience and slow-path
  /// attempts measured on threads (E19).
  struct Options : Engine::Options {
    Options()
        : Engine::Options{/*patience=*/64, /*combine_attempts=*/4,
                          /*lanes=*/0} {}
  };

  explicit RtQaBatched(int nthreads, State initial = State{},
                       Options options = {})
      : Front(nthreads, std::move(initial),
              static_cast<registers::AbortPolicy*>(nullptr), options) {}

  /// Saturating surface: announce on tid's own lane, then collect.
  /// Exactly-once by uid dedup; never bottom.
  Result apply(Tid tid, Op op) {
    const int lane = this->pid_of(tid);
    announce(tid, lane, std::move(op));
    return collect(tid, lane);
  }

  /// Stage `op` on `lane`, driven by tid's thread only.
  void announce(Tid tid, int lane, Op op) {
    RtEnv env{this->pid_of(tid)};
    bool landed = this->inner_.announce(env, lane, std::move(op))
                      .await_resume();
    while (!landed) {
      std::this_thread::yield();
      landed = this->inner_.write_announce(env, lane).await_resume();
    }
  }

  /// The result of the op staged on `lane`, once applied.
  Result collect(Tid tid, int lane) {
    RtEnv env{this->pid_of(tid)};
    return this->inner_.collect(env, lane).run_inline();
  }

  /// Per-thread stats; read from the owning thread or after joining it.
  std::uint64_t ops_started(Tid tid) const {
    return this->inner_.ops_started(this->pid_of(tid));
  }
  std::uint64_t combines(Tid tid) const {
    return this->inner_.combines(this->pid_of(tid));
  }
  std::uint64_t fast_completions(Tid tid) const {
    return this->inner_.fast_completions(this->pid_of(tid));
  }
  /// Per-thread patience override; set it before the thread starts.
  void set_patience(Tid tid, int patience) {
    this->inner_.set_patience(this->pid_of(tid), patience);
  }
  /// Snapshot of the decided frontier, for exactness checks while no
  /// thread is operating.
  InnerStateRec state_snapshot() const {
    return this->inner_.inner().peek_frontier();
  }
};

}  // namespace tbwf::rt
