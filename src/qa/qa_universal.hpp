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
// abortable registers.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "qa/qa_object.hpp"
#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "sim/co.hpp"
#include "sim/env.hpp"
#include "sim/world.hpp"
#include "util/assert.hpp"
#include "util/small_vec.hpp"

namespace tbwf::qa {

// ---------------------------------------------------------------------------
// Base-register policies.
// ---------------------------------------------------------------------------

/// Atomic base registers: reads/writes never abort. read/write return
/// adapters over the simulator's awaiters (not coroutines, so a register
/// op allocates no frame), giving the same result shapes as the
/// abortable base: a read yields an engaged optional, a write yields
/// true.
struct AtomicBase {
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
  static Reg<Rec> make(sim::World& world, const std::string& name, Rec init,
                       registers::AbortPolicy*, sim::Pid /*writer*/) {
    return world.make_atomic<Rec>(name, std::move(init));
  }
  template <class Rec>
  static ReadAwaiter<Rec> read(sim::SimEnv& env, Reg<Rec> r) {
    return {env.read(r)};
  }
  template <class Rec>
  static WriteAwaiter<Rec> write(sim::SimEnv& env, Reg<Rec> r, Rec v) {
    return {env.write(r, std::move(v))};
  }
};

/// Abortable base registers (single-writer, any reader): any operation
/// may abort under contention; an aborted base write may or may not
/// have taken effect, which the protocol treats as "accept adoptable".
/// read/write hand back the simulator's awaiters directly.
struct AbortableBase {
  template <class Rec>
  using Reg = sim::AbortableReg<Rec>;

  template <class Rec>
  static Reg<Rec> make(sim::World& world, const std::string& name, Rec init,
                       registers::AbortPolicy* policy, sim::Pid writer) {
    return world.make_abortable<Rec>(name, std::move(init), policy, writer,
                                     sim::kNoPid);
  }
  template <class Rec>
  static sim::detail::AbortableReadOp<Rec> read(sim::SimEnv& env,
                                                Reg<Rec> r) {
    return env.read(r);
  }
  template <class Rec>
  static sim::detail::AbortableWriteOp<Rec> write(sim::SimEnv& env,
                                                  Reg<Rec> r, Rec v) {
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

  /// REG[p]: everything process p publishes.
  struct Record {
    Token promised;
    Token accepted;
    StateRec accepted_state;
    StateRec decided;
  };

  QaUniversal(sim::World& world, State initial,
              registers::AbortPolicy* policy = nullptr)
      : world_(world), n_(world.n()) {
    StateRec genesis;
    genesis.seq = 0;
    genesis.state = std::move(initial);
    genesis.last_uid.assign(n_, 0);
    genesis.last_result.assign(n_, Result{});
    Record init;
    init.decided = genesis;
    init.accepted_state = genesis;
    regs_.reserve(n_);
    for (sim::Pid p = 0; p < n_; ++p) {
      regs_.push_back(Base::template make<Record>(
          world, "QaReg[" + std::to_string(p) + "]", init, policy, p));
    }
    mine_.assign(n_, init);
    view_.assign(n_, std::vector<Record>(n_));
    local_decided_.assign(n_, genesis);
    round_.assign(n_, 0);
    uid_counter_.assign(n_, 0);
    last_real_uid_.assign(n_, 0);
    pending_slot_.assign(n_, 0);
    pending_uid_.assign(n_, 0);
    ops_started_.assign(n_, 0);
    publishes_.assign(n_, 0);
  }

  /// Apply `op` to the object; may return bottom under contention.
  sim::Co<Response> invoke(sim::SimEnv& env, Op op) {
    const sim::Pid p = env.pid();
    const std::uint64_t uid = ++uid_counter_[p] * n_ + p;
    last_real_uid_[p] = uid;
    pending_uid_[p] = 0;
    pending_slot_[p] = 0;
    ++ops_started_[p];

    Proposal proposal;
    proposal.has_op = true;
    proposal.op = std::move(op);
    proposal.uid = uid;

    // Up to two attempts: the first may spend itself finishing another
    // process's floating value (adoption); the second then runs on a
    // fresh slot. Solo, this bounds the operation at two attempts.
    for (int attempt = 0; attempt < 2; ++attempt) {
      const AttemptOutcome out = co_await attempt_once(env, p, proposal);
      switch (out.kind) {
        case AttemptKind::DecidedSelf:
          co_return Response::make_ok(out.result);
        case AttemptKind::DecidedOther:
          continue;
        case AttemptKind::AbortNoEffect:
          co_return Response::make_bottom();
        case AttemptKind::AbortMaybeEffect:
          co_return Response::make_bottom();
      }
    }
    co_return Response::make_bottom();
  }

  /// Determine the fate of this process's last invoke.
  sim::Co<Response> query(sim::SimEnv& env) {
    const sim::Pid p = env.pid();
    const std::uint64_t uid = last_real_uid_[p];
    if (uid == 0) co_return Response::make_not_applied();

    // One no-op attempt: if our value is still floating at its slot,
    // this either decides it (possibly by adoption through a peer) or
    // seals the slot with a different value, making F final.
    Proposal noop;
    noop.has_op = false;
    (void)co_await attempt_once(env, p, noop);

    if (!co_await read_all(env, p)) co_return Response::make_bottom();
    const StateRec& d = frontier(view_[p], p);
    if (d.last_uid[p] == uid) {
      co_return Response::make_ok(d.last_result[p]);
    }
    if (pending_uid_[p] != uid) {
      // The op never reached an accept: it cannot ever take effect.
      co_return Response::make_not_applied();
    }
    if (d.seq >= pending_slot_[p]) {
      // The slot our accept targeted is sealed with someone else's
      // value; stale accepts at sealed slots are never adopted.
      co_return Response::make_not_applied();
    }
    co_return Response::make_bottom();
  }

  /// One wait-free read pass over all records: the decided frontier as
  /// currently visible to the caller (nullopt if a base read aborted).
  /// Read-only w.r.t. shared memory; refreshes the caller's local
  /// decided cache. The batched engine polls this between announces.
  sim::Co<std::optional<StateRec>> read_frontier(sim::SimEnv& env) {
    const sim::Pid p = env.pid();
    if (!co_await read_all(env, p)) co_return std::nullopt;
    StateRec d = frontier(view_[p], p);
    if (d.seq > local_decided_[p].seq) local_decided_[p] = d;
    co_return d;
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
  std::uint64_t publishes(sim::Pid p) const { return publishes_[p]; }

  /// Non-step introspection for tests/benches: the highest decided
  /// record currently visible in shared memory.
  StateRec peek_frontier() const {
    StateRec best;
    for (sim::Pid q = 0; q < n_; ++q) {
      const auto& rec = world_.template peek<Record>(regs_[q].idx);
      if (rec.decided.seq >= best.seq) best = rec.decided;
    }
    for (sim::Pid q = 0; q < n_; ++q) {
      if (local_decided_[q].seq > best.seq) best = local_decided_[q];
    }
    return best;
  }

  std::uint64_t ops_started(sim::Pid p) const { return ops_started_[p]; }
  int n() const { return n_; }

  /// Non-step test introspection: the raw record register of process p.
  const Record& peek_record(sim::Pid p) const {
    return world_.template peek<Record>(regs_[p].idx);
  }

  // -- verify-layer introspection (non-step) ---------------------------------
  // The schedule explorer fingerprints the object's private per-process
  // state alongside the shared records; these accessors expose exactly
  // what a state digest needs and nothing mutable.
  const Record& local_mine(sim::Pid p) const { return mine_[p]; }
  const StateRec& local_decided_rec(sim::Pid p) const {
    return local_decided_[p];
  }
  std::uint64_t round(sim::Pid p) const { return round_[p]; }
  std::uint64_t pending_uid(sim::Pid p) const { return pending_uid_[p]; }
  std::uint64_t pending_slot(sim::Pid p) const { return pending_slot_[p]; }
  std::uint64_t last_real_uid(sim::Pid p) const { return last_real_uid_[p]; }

  void set_mutations(QaMutations mutations) { mutations_ = mutations; }
  const QaMutations& mutations() const { return mutations_; }

 private:
  struct Proposal {
    bool has_op = false;
    Op op{};
    std::uint64_t uid = 0;
  };

  enum class AttemptKind {
    DecidedSelf,       ///< our proposal decided; result valid
    DecidedOther,      ///< we finished someone else's floating value
    AbortNoEffect,     ///< aborted before our accept: no effect, ever
    AbortMaybeEffect,  ///< aborted at/after our accept: effect unknown
  };
  struct AttemptOutcome {
    AttemptKind kind = AttemptKind::AbortNoEffect;
    Result result{};
  };

  /// One read pass over all records into view_[self] (the caller's own
  /// slot comes from mine_); false if a base read aborted, leaving the
  /// view partly filled. The view is overwritten by the caller's next
  /// pass, so callers copy out what must outlive it.
  sim::Co<bool> read_all(sim::SimEnv& env, sim::Pid self) {
    std::vector<Record>& recs = view_[self];
    for (sim::Pid q = 0; q < n_; ++q) {
      if (q == self) {
        recs[q] = mine_[self];
        continue;
      }
      std::optional<Record> r = co_await Base::template read<Record>(
          env, regs_[q]);
      if (!r.has_value()) co_return false;
      recs[q] = std::move(*r);
    }
    co_return true;
  }

  /// Highest decided record across `recs` and p's local cache.
  const StateRec& frontier(const std::vector<Record>& recs,
                           sim::Pid p) const {
    const StateRec* best = &local_decided_[p];
    for (const auto& rec : recs) {
      if (rec.decided.seq > best->seq) best = &rec.decided;
    }
    return *best;
  }

  /// Conflict: any evidence of a competitor that step 3/5 must yield to.
  bool conflicts(const std::vector<Record>& recs, sim::Pid self,
                 const Token& me) const {
    for (sim::Pid q = 0; q < n_; ++q) {
      if (q == self) continue;
      const Record& rec = recs[q];
      if (rec.decided.seq >= me.seq) return true;
      if (rec.promised.seq > me.seq) return true;
      if (rec.promised.seq == me.seq && rec.promised.gt(me)) return true;
      if (rec.accepted.seq > me.seq) return true;
      if (rec.accepted.seq == me.seq && rec.accepted.gt(me)) return true;
    }
    return false;
  }

  /// Write mine_[p], the record p wants visible, to p's register. The
  /// returned awaiter yields false iff an abortable base write aborted.
  auto publish(sim::SimEnv& env, sim::Pid p) {
    ++publishes_[p];
    return Base::template write<Record>(env, regs_[p], mine_[p]);
  }

  sim::Co<AttemptOutcome> attempt_once(sim::SimEnv& env, sim::Pid p,
                                       const Proposal& proposal) {
    AttemptOutcome out;

    // Step 1: read the frontier.
    if (!co_await read_all(env, p)) {
      out.kind = AttemptKind::AbortNoEffect;
      co_return out;
    }
    StateRec d = frontier(view_[p], p);
    if (d.seq > local_decided_[p].seq) local_decided_[p] = d;
    const Token me{d.seq + 1, ++round_[p], p};

    // Step 2: publish the promise (and the frontier, as catch-up help).
    mine_[p].promised = me;
    mine_[p].decided = local_decided_[p];
    if (!co_await publish(env, p)) {
      out.kind = AttemptKind::AbortNoEffect;
      co_return out;
    }

    // Step 3: read; abort on conflict; adopt the highest floating accept.
    const bool read2 = co_await read_all(env, p);
    if (!read2 || conflicts(view_[p], p, me)) {
      out.kind = AttemptKind::AbortNoEffect;
      co_return out;
    }
    const Record* adopt = nullptr;
    for (sim::Pid q = 0; q < n_; ++q) {
      if (q == p) continue;
      const Record& rec = view_[p][q];
      if (rec.accepted.seq == me.seq &&
          (adopt == nullptr || rec.accepted.gt(adopt->accepted))) {
        adopt = &rec;
      }
    }

    StateRec value;
    bool adopted = false;
    if (adopt != nullptr) {
      value = adopt->accepted_state;
      adopted = true;
    } else {
      value = d;  // copy of the frontier
      value.seq = me.seq;
      if (proposal.has_op) {
        value.last_result[p] = S::apply(value.state, proposal.op);
        value.last_uid[p] = proposal.uid;
      }
    }

    // Step 4: publish the accept. From here on our value is adoptable,
    // so every failure is "maybe effect".
    mine_[p].accepted = me;
    mine_[p].accepted_state = value;
    if (proposal.has_op && !adopted) {
      pending_uid_[p] = proposal.uid;
      pending_slot_[p] = me.seq;
    }
    if (!co_await publish(env, p)) {
      out.kind = AttemptKind::AbortMaybeEffect;
      co_return out;
    }

    // Step 5: validate. (The drop_decide_fence mutant skips this read --
    // exactly the bug the verify layer's explorer must catch.)
    if (!mutations_.drop_decide_fence) {
      const bool read3 = co_await read_all(env, p);
      if (!read3 || conflicts(view_[p], p, me)) {
        out.kind = AttemptKind::AbortMaybeEffect;
        co_return out;
      }
    }

    // Decided. Step 6: publish (best effort -- see file comment).
    if (decide_hook_) decide_hook_(p, env.now(), d, value);
    local_decided_[p] = value;
    mine_[p].decided = value;
    (void)co_await publish(env, p);

    if (adopted) {
      out.kind = AttemptKind::DecidedOther;
    } else if (proposal.has_op) {
      out.kind = AttemptKind::DecidedSelf;
      out.result = value.last_result[p];
    } else {
      out.kind = AttemptKind::DecidedSelf;  // no-op decided
    }
    co_return out;
  }

  sim::World& world_;
  int n_;
  std::vector<typename Base::template Reg<Record>> regs_;
  /// Mirror of what p last tried to publish in its own register; with an
  /// atomic base this equals the register content.
  std::vector<Record> mine_;
  /// view_[p]: p's last read pass over all records (see read_all). One
  /// buffer per process suffices because, as with mine_, a process runs
  /// one operation on the object at a time.
  std::vector<std::vector<Record>> view_;
  std::vector<StateRec> local_decided_;
  std::vector<std::uint64_t> round_;
  std::vector<std::uint64_t> uid_counter_;
  std::vector<std::uint64_t> last_real_uid_;
  std::vector<std::uint64_t> pending_slot_;
  std::vector<std::uint64_t> pending_uid_;
  std::vector<std::uint64_t> ops_started_;
  std::vector<std::uint64_t> publishes_;
  QaMutations mutations_;
  DecideHook decide_hook_;
};

}  // namespace tbwf::qa
