// Wait-free universal construction of T_QA from registers.
//
// The paper obtains a wait-free implementation of O_QA (the
// query-abortable counterpart of any type T) from the universal
// construction of [2] (Aguilera, Frolund, Hadzilacos, Horn, Toueg,
// PODC'07), whose text is outside this paper. This file provides our
// own construction with the same interface guarantees, which is all the
// TBWF transformation (Figure 7) relies on:
//
//   * every operation returns within a bounded number of its caller's
//     steps (wait-free), possibly with bottom;
//   * an operation that runs with no concurrent operation never aborts
//     (in particular, solo runs always succeed);
//   * successful operations are linearizable applications of T's
//     sequential semantics;
//   * query reports the fate of the caller's last operation: its
//     response if it took (or will have taken) effect, F if it is
//     permanently without effect, bottom if undetermined.
//
// Design: single-writer multi-reader "record" registers, one per
// process, driven by an abort-on-contention variant of shared-memory
// (disk) Paxos. The object's history is a chain of decided StateRecs,
// one per slot; slot s's value is computed from slot s-1's decided
// state. An attempt by p at slot s:
//
//   1. read all records; the decided frontier D fixes s = D.seq + 1 and
//      a fresh round token (s, round, p);
//   2. publish a promise for (s, round) in p's own record;
//   3. read all records: abort on any higher promise/accept at slot s or
//      any record at a later slot; otherwise adopt the highest-round
//      accepted value at slot s if one exists, else propose
//      apply(D.state, op);
//   4. publish the accept (s, round, value) in p's own record;
//   5. read all records: abort (effect now unknown -- the accept is
//      adoptable) on any conflict; otherwise the value is DECIDED;
//   6. publish the decision (best-effort: even if this write aborts, the
//      surviving accept record forces every later round at slot s to
//      re-decide the same value).
//
// Safety is the standard Paxos argument specialized to single-writer
// registers: a decided value's accept is visible to every higher round's
// read phase (otherwise that round's earlier promise would have aborted
// the decider at step 5), so higher rounds can only re-propose it.
// Abort-instead-of-wait preserves wait-freedom; adoption (finishing
// another process's floating value, then retrying once at the next
// slot) preserves solo success.
//
// The same code runs on atomic or abortable base registers via the Base
// policy: with abortable registers a base-level abort simply aborts the
// attempt, and since solo operations on abortable registers never abort,
// solo attempts still succeed -- which is how Theorem 15 gets T_QA from
// abortable registers. The policy is the construction's whole register
// environment, so a third one, rt::RtBase (rt/rt_qa.hpp), runs these
// very coroutines on std::threads: its awaiters have already done their
// operation, and Co::run_inline() completes an operation on the calling
// thread with no scheduler.
//
// Records carry their two states by pointer. A state is built exactly
// once -- genesis, or a proposer's fresh value: a copy of the frontier
// with the op applied -- and never mutated after its pointer is first
// written to a register. Register reads and writes, read passes,
// frontier selection and adoption therefore copy pointers, not states.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qa/qa_object.hpp"
#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "sim/co.hpp"
#include "sim/env.hpp"
#include "sim/world.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"
#include "util/small_vec.hpp"

namespace tbwf::qa {

// ---------------------------------------------------------------------------
// Base-register policies.
//
// A policy supplies the register handle type Reg<Rec>, the process
// environment Env (pid(), now()), the owner of the registers Home
// (n(home), make, a non-step peek), and the awaitables: read, write,
// one read pass over all records, and a local step (yield). The zoo
// specialists (zoo/snapshot.hpp, zoo/ledger.hpp) are written over the
// same policies.
// ---------------------------------------------------------------------------

/// What both simulator policies share: the World as home, SimEnv as
/// environment, and the read pass as one chained awaiter.
struct SimBase {
  using Env = sim::SimEnv;
  using Home = sim::World;
  /// The schedule explorer fingerprints objects on these registers, so
  /// objects keep the bookkeeping a fingerprint needs.
  static constexpr bool kExplored = true;

  static int n(const Home& world) { return world.n(); }

  /// One local step (the paper's "skip").
  static sim::detail::YieldOp yield(Env& env) { return env.yield(); }

  /// Non-step introspection of a register's content.
  template <class Rec, class Reg>
  static const Rec& peek(const Home& world, const Reg& r) {
    return world.template peek<Rec>(r.idx);
  }

  /// One read pass over the other processes' records into `view`; the
  /// caller's own slot is not read and keeps whatever it held. Yields
  /// false iff a base read aborted, leaving `view` partly filled.
  ///
  /// The pass is one awaiter, not a coroutine: each read's completion
  /// stores its record and opens the next read in the same step (see
  /// OpCompletion::complete), so the pass takes exactly the steps of its
  /// reads and needs no frame of its own.
  template <class Rec, class Regs>
  class ReadPass final : public sim::detail::OpCompletion {
   public:
    ReadPass(Env& env, const Regs& regs, sim::Pid self,
             std::vector<Rec>& view)
        : env_(env), regs_(regs), self_(self), view_(view),
          q_(next_after(-1)) {}
    /// The world holds this pass's address while a read is open.
    ReadPass(const ReadPass&) = delete;
    ReadPass& operator=(const ReadPass&) = delete;

    bool await_ready() const noexcept { return q_ == end(); }
    void await_suspend(std::coroutine_handle<> h) {
      env_.world().set_resume_handle(h);
      open();
    }
    bool await_resume() const noexcept { return ok_; }

    void complete(sim::World& world, const registers::OpContext& ctx,
                  bool overlapped) override {
      read_->complete(world, ctx, overlapped);
      if (!store(read_->await_resume())) {
        ok_ = false;
        return;
      }
      q_ = next_after(q_);
      if (q_ != end()) open();
    }
    void settle_crash(sim::World& world,
                      const registers::OpContext& ctx) override {
      read_->settle_crash(world, ctx);
    }

   private:
    /// The simulator's read awaiter for one register of the pass.
    using ReadOp = decltype(std::declval<Env&>().read(
        std::declval<const typename Regs::value_type&>()));

    sim::Pid end() const { return static_cast<sim::Pid>(regs_.size()); }
    sim::Pid next_after(sim::Pid q) const {
      ++q;
      return q == self_ ? q + 1 : q;
    }
    /// Opens the read of regs_[q_], with this pass as its completion.
    void open() {
      read_.emplace(env_.read(regs_[q_]));
      env_.world().begin_op(read_->cell, /*is_write=*/false, this);
    }
    bool store(Rec&& r) {
      view_[q_] = std::move(r);
      return true;
    }
    bool store(std::optional<Rec>&& r) {
      if (!r.has_value()) return false;
      view_[q_] = std::move(*r);
      return true;
    }

    Env& env_;
    const Regs& regs_;
    sim::Pid self_;
    std::vector<Rec>& view_;
    sim::Pid q_;  ///< the register being read; end() when done
    std::optional<ReadOp> read_;
    bool ok_ = true;
  };

  template <class Rec, class Regs>
  static ReadPass<Rec, Regs> read_pass(Env& env, const Regs& regs,
                                       sim::Pid self, std::vector<Rec>& view) {
    return ReadPass<Rec, Regs>(env, regs, self, view);
  }

  /// Where the batched engine's combiners leave decided states for its
  /// waiters. The simulator keeps none, so it costs no step: a waiter
  /// polls by running `refresh` (a read pass over the records), has
  /// seen nothing else, and leads no combine before its patience runs
  /// out.
  template <class Ptr>
  struct Board {
    explicit Board(const Home&) {}
    template <class Refresh>
    auto poll(Env&, Refresh refresh) {
      return refresh();
    }
    const typename Ptr::element_type* seen(sim::Pid) const { return nullptr; }
    bool lead(Env&) { return false; }
    void offer(Env&, const Ptr&) {}
  };
};

/// Atomic base registers: reads/writes never abort. read/write return
/// adapters over the simulator's awaiters (not coroutines, so a register
/// op allocates no frame), giving the same result shapes as the
/// abortable base: a read yields an engaged optional, a write yields
/// true.
struct AtomicBase : SimBase {
  template <class Rec>
  using Reg = sim::AtomicReg<Rec>;

  template <class Rec>
  struct ReadAwaiter {
    sim::detail::AtomicReadOp<Rec> op;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { op.await_suspend(h); }
    std::optional<Rec> await_resume() { return op.await_resume(); }
  };
  template <class Rec>
  struct WriteAwaiter {
    sim::detail::AtomicWriteOp<Rec> op;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { op.await_suspend(h); }
    bool await_resume() { return true; }
  };

  template <class Rec>
  static Reg<Rec> make(Home& world, const std::string& name, Rec init,
                       registers::AbortPolicy*, sim::Pid /*writer*/) {
    return world.make_atomic<Rec>(name, std::move(init));
  }
  template <class Rec>
  static ReadAwaiter<Rec> read(Env& env, const Reg<Rec>& r) {
    return {env.read(r)};
  }
  template <class Rec>
  static WriteAwaiter<Rec> write(Env& env, const Reg<Rec>& r, Rec v) {
    return {env.write(r, std::move(v))};
  }
};

/// Abortable base registers (single-writer, any reader): any operation
/// may abort under contention; an aborted base write may or may not
/// have taken effect, which the protocol treats as "accept adoptable".
/// read/write hand back the simulator's awaiters directly.
struct AbortableBase : SimBase {
  template <class Rec>
  using Reg = sim::AbortableReg<Rec>;

  template <class Rec>
  static Reg<Rec> make(Home& world, const std::string& name, Rec init,
                       registers::AbortPolicy* policy, sim::Pid writer) {
    return world.make_abortable<Rec>(name, std::move(init), policy, writer,
                                     sim::kNoPid);
  }
  template <class Rec>
  static sim::detail::AbortableReadOp<Rec> read(Env& env,
                                                const Reg<Rec>& r) {
    return env.read(r);
  }
  template <class Rec>
  static sim::detail::AbortableWriteOp<Rec> write(Env& env,
                                                  const Reg<Rec>& r, Rec v) {
    return env.write(r, std::move(v));
  }
};

// ---------------------------------------------------------------------------
// The universal construction.
// ---------------------------------------------------------------------------

/// Injectable protocol faults for the verify layer's mutation tests
/// (tests/verify_mutation_test.cpp). Production code never sets these;
/// they exist so the schedule explorer + linearizability oracle can be
/// shown to CATCH the bugs they are meant to catch.
struct QaMutations {
  /// Skip the step-5 validation read before deciding. That read is the
  /// fence that makes a published accept safe to decide: without it two
  /// rounds can decide different values at one slot, and the oracle must
  /// flag the resulting history as non-linearizable.
  bool drop_decide_fence = false;
};

template <Sequential S, class Base = AtomicBase>
class QaUniversal {
 public:
  using Env = typename Base::Env;
  using Home = typename Base::Home;
  using State = typename S::State;
  using Op = typename S::Op;
  using Result = typename S::Result;
  using Response = QaResponse<Result>;

  /// Round token; comparisons are only meaningful within one slot.
  struct Token {
    std::uint64_t seq = 0;  ///< slot; 0 = none
    std::uint64_t round = 0;
    sim::Pid pid = sim::kNoPid;

    bool gt(const Token& other) const {
      return round > other.round ||
             (round == other.round && pid > other.pid);
    }
    bool operator==(const Token&) const = default;
  };

  /// Processes whose per-process arrays a StateRec stores inline; more
  /// processes spill those arrays to the heap.
  static constexpr std::size_t kInlinePids = 4;

  /// One link of the decided chain: the object state after `seq` decided
  /// operations plus each process's last applied (uid, result).
  struct StateRec {
    std::uint64_t seq = 0;
    State state{};
    util::SmallVec<std::uint64_t, kInlinePids> last_uid;
    util::SmallVec<Result, kInlinePids> last_result;
  };
  /// Immutable once published; shared by every record and cache that
  /// holds it.
  using StatePtr = std::shared_ptr<const StateRec>;

  /// REG[p]: everything process p publishes.
  struct Record {
    Token promised;
    Token accepted;
    StatePtr accepted_state;
    StatePtr decided;

    /// States are immutable, so equal tokens and equal pointers are an
    /// equal record (the rt read pass skips copying an unchanged one).
    bool operator==(const Record&) const = default;
  };

  QaUniversal(Home& home, State initial,
              registers::AbortPolicy* policy = nullptr)
      : home_(home), n_(Base::n(home)), local_(n_) {
    auto genesis = std::make_shared<StateRec>();
    genesis->state = std::move(initial);
    genesis->last_uid.assign(n_, 0);
    genesis->last_result.assign(n_, Result{});
    const Record init{Token{}, Token{}, genesis, genesis};
    regs_.reserve(n_);
    for (sim::Pid p = 0; p < n_; ++p) {
      regs_.push_back(Base::template make<Record>(
          home, "QaReg[" + std::to_string(p) + "]", init, policy, p));
      local_[p].mine = init;
      local_[p].view.resize(n_);
      local_[p].decided = genesis;
    }
  }

  /// Apply `op` to the object; may return bottom under contention.
  sim::Co<Response> invoke(Env& env, Op op) {
    const sim::Pid p = env.pid();
    Local& me = local_[p];
    const std::uint64_t uid = ++me.uid_counter * n_ + p;
    me.last_real_uid = uid;
    me.pending_uid = 0;
    me.pending_slot = 0;
    ++me.ops_started;
    // Up to two attempts: the first may spend itself finishing another
    // process's floating value (adoption); the second then runs on a
    // fresh slot. Solo, this bounds the operation at two attempts.
    return attempt(env, p, Proposal{true, std::move(op), uid}, 2);
  }

  /// Determine the fate of this process's last invoke.
  sim::Co<Response> query(Env& env) {
    const sim::Pid p = env.pid();
    const Local& me = local_[p];
    const std::uint64_t uid = me.last_real_uid;
    if (uid == 0) co_return Response::make_not_applied();

    // One no-op attempt: if our value is still floating at its slot,
    // this either decides it (possibly by adoption through a peer) or
    // seals the slot with a different value, making F final.
    (void)co_await attempt(env, p, Proposal{}, 1);

    if (!co_await read_pass(env, p)) co_return Response::make_bottom();
    const StateRec& d = *frontier(p);
    if (d.last_uid[p] == uid) {
      co_return Response::make_ok(d.last_result[p]);
    }
    if (me.pending_uid != uid) {
      // The op never reached an accept: it cannot ever take effect.
      co_return Response::make_not_applied();
    }
    if (d.seq >= me.pending_slot) {
      // The slot our accept targeted is sealed with someone else's
      // value; stale accepts at sealed slots are never adopted.
      co_return Response::make_not_applied();
    }
    co_return Response::make_bottom();
  }

  /// One wait-free read pass over all records, as an awaiter that takes
  /// no frame: it yields the decided frontier as currently visible to
  /// the caller (null if a base read aborted). Read-only w.r.t. shared
  /// memory; refreshes the caller's local decided cache, which keeps the
  /// state alive until the caller's next read pass or decision. The
  /// batched engine polls this between announces.
  auto read_frontier(Env& env) {
    const sim::Pid p = env.pid();
    return FrontierRead<decltype(read_pass(env, p))>{read_pass(env, p),
                                                     *this, p};
  }

  /// Hook fired at the moment a slot is decided, before the best-effort
  /// decide publish: (decider, global step, slot s-1 state, slot s
  /// state). The batched engine uses it to journal batch commits; it
  /// takes no simulator step and must not touch shared registers.
  using DecideHook =
      std::function<void(sim::Pid, sim::Step, const StateRec&,
                         const StateRec&)>;
  void set_decide_hook(DecideHook hook) { decide_hook_ = std::move(hook); }

  /// Shared-register writes this process has issued through the
  /// construction (promise/accept/decide publishes), for the E19
  /// write-contention accounting.
  std::uint64_t publishes(sim::Pid p) const { return local_[p].publishes; }

  /// Non-step introspection for tests/benches: the highest decided
  /// record currently visible in shared memory.
  StateRec peek_frontier() const {
    StatePtr best;
    for (sim::Pid q = 0; q < n_; ++q) {
      const auto& rec = Base::template peek<Record>(home_, regs_[q]);
      if (!best || rec.decided->seq >= best->seq) best = rec.decided;
    }
    for (const Local& other : local_) {
      if (other.decided->seq > best->seq) best = other.decided;
    }
    return *best;
  }

  std::uint64_t ops_started(sim::Pid p) const {
    return local_[p].ops_started;
  }
  int n() const { return n_; }

  /// Non-step test introspection: the raw record register of process p.
  decltype(auto) peek_record(sim::Pid p) const {
    return Base::template peek<Record>(home_, regs_[p]);
  }

  /// The highest decided state process p has observed. Only p's own
  /// thread may read it while p is operating (on threads, a slice of
  /// per-process state is unsynchronized).
  const StatePtr& local_decided(sim::Pid p) const {
    return local_[p].decided;
  }

  // -- verify-layer introspection (non-step) ---------------------------------
  // The schedule explorer fingerprints the object's private per-process
  // state alongside the shared records; these accessors expose exactly
  // what a state digest needs and nothing mutable.
  const Record& local_mine(sim::Pid p) const { return local_[p].mine; }
  const StateRec& local_decided_rec(sim::Pid p) const {
    return *local_[p].decided;
  }
  std::uint64_t round(sim::Pid p) const { return local_[p].round; }
  std::uint64_t pending_uid(sim::Pid p) const {
    return local_[p].pending_uid;
  }
  std::uint64_t pending_slot(sim::Pid p) const {
    return local_[p].pending_slot;
  }
  std::uint64_t last_real_uid(sim::Pid p) const {
    return local_[p].last_real_uid;
  }

  void set_mutations(QaMutations mutations) { mutations_ = mutations; }
  const QaMutations& mutations() const { return mutations_; }

 private:
  /// read_frontier()'s awaiter: the read pass, then the refresh.
  template <class Pass>
  struct FrontierRead {
    Pass pass;
    QaUniversal& self;
    sim::Pid p;

    bool await_ready() { return pass.await_ready(); }
    decltype(auto) await_suspend(std::coroutine_handle<> h) {
      return pass.await_suspend(h);
    }
    const StateRec* await_resume() {
      return pass.await_resume() ? self.refresh_decided(p).get() : nullptr;
    }
  };

  struct Proposal {
    bool has_op = false;
    Op op{};
    std::uint64_t uid = 0;
  };

  /// Process p's private protocol state. A process runs one operation
  /// on the object at a time, so one slice each suffices; slices are
  /// cache-line-aligned so threads driving neighbouring pids do not
  /// false-share.
  struct alignas(util::kCacheLineSize) Local {
    /// Mirror of what p last tried to publish in its own register; with
    /// an atomic base this equals the register content.
    Record mine;
    /// p's last read pass over the other processes' records (see
    /// read_pass); view[p] is never filled. It is overwritten by the
    /// next pass, so callers copy out what must outlive it.
    std::vector<Record> view;
    StatePtr decided;  ///< highest decided state p has observed
    std::uint64_t round = 0;
    std::uint64_t uid_counter = 0;
    std::uint64_t last_real_uid = 0;
    std::uint64_t pending_slot = 0;
    std::uint64_t pending_uid = 0;
    std::uint64_t ops_started = 0;
    std::uint64_t publishes = 0;
  };

  /// One read pass over the other records into local_[p].view; yields
  /// false iff a base read aborted (the view is then partial and unused).
  auto read_pass(Env& env, sim::Pid p) {
    return Base::template read_pass<Record>(env, regs_, p, local_[p].view);
  }

  /// Highest decided state across p's last read pass and p's cache. p's
  /// own record is not consulted: mine.decided never runs ahead of
  /// me.decided.
  const StatePtr& frontier(sim::Pid p) const {
    const Local& me = local_[p];
    const StatePtr* best = &me.decided;
    for (sim::Pid q = 0; q < n_; ++q) {
      if (q == p) continue;
      const Record& rec = me.view[q];
      if (rec.decided->seq > (*best)->seq) best = &rec.decided;
    }
    return *best;
  }

  /// Raises p's decided cache to the frontier of its last read pass,
  /// and returns it.
  const StatePtr& refresh_decided(sim::Pid p) {
    Local& me = local_[p];
    const StatePtr& d = frontier(p);
    if (d->seq > me.decided->seq) me.decided = d;
    return me.decided;
  }

  /// Conflict: any evidence of a competitor that step 3/5 must yield to.
  bool conflicts(const std::vector<Record>& recs, sim::Pid self,
                 const Token& me) const {
    for (sim::Pid q = 0; q < n_; ++q) {
      if (q == self) continue;
      const Record& rec = recs[q];
      if (rec.decided->seq >= me.seq) return true;
      if (rec.promised.seq > me.seq) return true;
      if (rec.promised.seq == me.seq && rec.promised.gt(me)) return true;
      if (rec.accepted.seq > me.seq) return true;
      if (rec.accepted.seq == me.seq && rec.accepted.gt(me)) return true;
    }
    return false;
  }

  /// Write a copy of local_[p].mine, the record p wants visible, to p's
  /// register. The copy is an rvalue, so on threads the record it
  /// displaces dies outside the cell. The returned awaiter yields false
  /// iff an abortable base write aborted.
  auto publish(Env& env, sim::Pid p) {
    Local& me = local_[p];
    ++me.publishes;
    return Base::template write<Record>(env, regs_[p], Record(me.mine));
  }

  /// Up to `attempts` slot attempts for `proposal`, continuing only
  /// after an attempt that decided another process's floating value.
  /// Every abort answers bottom; whether it may still take effect is
  /// recorded in pending_uid / pending_slot for query.
  sim::Co<Response> attempt(Env& env, sim::Pid p, Proposal proposal,
                            int attempts) {
    Local& me = local_[p];
    for (int i = 0; i < attempts; ++i) {
      // Step 1: read the frontier; the attempt builds on it, and
      // refresh_decided leaves it in me.decided.
      if (!co_await read_pass(env, p)) co_return Response::make_bottom();
      const Token token{refresh_decided(p)->seq + 1, ++me.round, p};

      // Step 2: publish the promise (and the frontier, as catch-up help).
      me.mine.promised = token;
      me.mine.decided = me.decided;
      if (!co_await publish(env, p)) co_return Response::make_bottom();

      // Step 3: read; abort on conflict; adopt the highest floating
      // accept.
      if (!co_await read_pass(env, p) || conflicts(me.view, p, token)) {
        co_return Response::make_bottom();
      }
      const Record* adopt = nullptr;
      for (sim::Pid q = 0; q < n_; ++q) {
        if (q == p) continue;
        const Record& rec = me.view[q];
        if (rec.accepted.seq == token.seq &&
            (adopt == nullptr || rec.accepted.gt(adopt->accepted))) {
          adopt = &rec;
        }
      }

      StatePtr value;
      const bool adopted = adopt != nullptr;
      if (adopted) {
        value = adopt->accepted_state;
      } else {
        // The one place a state is built: the frontier plus our op,
        // complete before its pointer reaches a register.
        auto fresh = std::make_shared<StateRec>(*me.decided);
        fresh->seq = token.seq;
        if (proposal.has_op) {
          fresh->last_result[p] = S::apply(fresh->state, proposal.op);
          fresh->last_uid[p] = proposal.uid;
        }
        value = std::move(fresh);
      }

      // Step 4: publish the accept. From here on our value is adoptable,
      // so every failure is "maybe effect".
      me.mine.accepted = token;
      me.mine.accepted_state = value;
      if (proposal.has_op && !adopted) {
        me.pending_uid = proposal.uid;
        me.pending_slot = token.seq;
      }
      if (!co_await publish(env, p)) co_return Response::make_bottom();

      // Step 5: validate. (The drop_decide_fence mutant skips this read
      // -- exactly the bug the verify layer's explorer must catch.)
      if (!mutations_.drop_decide_fence) {
        if (!co_await read_pass(env, p) || conflicts(me.view, p, token)) {
          co_return Response::make_bottom();
        }
      }

      // Decided. Step 6: publish (best effort -- see file comment).
      if (decide_hook_) decide_hook_(p, env.now(), *me.decided, *value);
      me.decided = value;
      me.mine.decided = value;
      (void)co_await publish(env, p);

      if (!adopted) {
        co_return Response::make_ok(
            proposal.has_op ? value->last_result[p] : Result{});
      }
    }
    co_return Response::make_bottom();
  }

  Home& home_;
  int n_;
  std::vector<typename Base::template Reg<Record>> regs_;
  std::vector<Local> local_;
  QaMutations mutations_;
  DecideHook decide_hook_;
};

}  // namespace tbwf::qa
