// Batched fast-path/slow-path throughput engine in front of the QA
// universal construction, for both backends.
//
// The plain construction (qa_universal.hpp) pays one full promise /
// accept / decide round per operation, so n contending processes fight
// for every slot. Following the Nerio batch-of-edicts idea and the
// write-contention lower bounds of Alistarh-Gelashvili-Nadiradze (many
// logical ops must share one shared-register write to beat per-op
// contention), this engine commits an ordered BATCH per decided slot:
//
//   announce   every caller publishes its pending op in a single-writer
//              announce register (one shared write per op, wait-free);
//   combine    the process that runs the slot protocol first drains the
//              announce array into one BatchOp and commits the whole
//              batch as one decided StateRec -- one Paxos round applies
//              many ops;
//   help       a caller whose op stays announced for more than
//              `patience` of its own polls runs the slot protocol
//              itself. Any combine whose drain starts after an announce
//              is published includes that announce (or finds it already
//              applied), so an op is included within a bounded number
//              of batch epochs -- the paper's graded guarantees restate
//              per batch epoch (core/conformance,
//              check_batch_conformance).
//
// Producer lanes: announce cells belong to lanes, not processes. There
// are Options::lanes of them (default n); lane p is process p's own,
// and the surfaces invoke / query / apply use it. A process may drive
// further lanes through announce() / collect(), one staged op per lane,
// so one combine round drains every staged lane -- many producers, few
// combiners, the case the batching argument is about. Only the n
// processes run the slot protocol; the batched state is per lane.
//
// Exactly-once demultiplexing: the batched object's state carries, per
// lane, the highest applied uid and its result (done_uid /
// done_result). apply() skips any item whose uid is already covered, so
// re-draining a stale announce, adopting a floating batch, or two
// combiners racing on overlapping drains are all idempotent -- the
// decided chain is unique per slot and every proposer computes its
// batch against the unique previous decided state.
//
// Fate sealing (query): a caller whose invoke returned bottom seals the
// fate of uid u by committing a batch whose item for it is a TOMBSTONE
// for u: if u is already in the chain the tombstone dedups away (Ok);
// otherwise it marks u consumed-void, after which every later drain of
// the stale announce dedups -- F is final even against combiners that
// drained the announce before the tombstone decided (their floating
// accepts die at sealed slots, and their re-proposals recompute against
// a state that already covers u).
//
// The engine is written over a base-register policy (qa_universal.hpp),
// so rt::RtQaBatched (rt/rt_qa.hpp) runs these very coroutines on
// threads. Per-process and per-lane state live in cache-line-aligned
// slices, each touched by one thread only. The batch journal is kept
// only on the simulator's policies (Base::kExplored): its announce
// index and commit log are written by every process.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/batch_log.hpp"
#include "qa/qa_object.hpp"
#include "qa/qa_universal.hpp"
#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "sim/co.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"

namespace tbwf::qa {

/// One announced operation inside a BatchOp.
template <Sequential S>
struct BatchItem {
  sim::Pid owner = sim::kNoPid;  ///< the announcing lane
  std::uint64_t uid = 0;
  typename S::Op op{};
  /// Mark `uid` consumed WITHOUT applying: the owner's query seals F.
  bool tombstone = false;
  /// Mutation seam (BatchMutations::drop_from_batch): credit the owner
  /// without applying the inner op -- the lost-update bug the verify
  /// stack must catch.
  bool skip_effect = false;
};

/// The batched sequential type: a Sequential whose Op is an ordered
/// batch of announced ops of the inner type S, with per-owner
/// exactly-once dedup and response demultiplexing baked into the state.
template <Sequential S>
struct BatchSeq {
  struct State {
    typename S::State inner{};
    /// Highest applied (or voided) uid per announcer; uids are strictly
    /// monotone per owner, so `uid <= done_uid[owner]` means covered.
    std::vector<std::uint64_t> done_uid;
    std::vector<std::uint8_t> done_void;  ///< 1 = covered by a tombstone
    std::vector<typename S::Result> done_result;
  };
  using Op = std::vector<BatchItem<S>>;
  using Result = std::int64_t;  ///< fresh ops this batch applied

  static Result apply(State& state, const Op& batch) {
    Result fresh = 0;
    for (const auto& item : batch) {
      const auto owner = static_cast<std::size_t>(item.owner);
      if (owner >= state.done_uid.size()) {
        state.done_uid.resize(owner + 1, 0);
        state.done_void.resize(owner + 1, 0);
        state.done_result.resize(owner + 1, typename S::Result{});
      }
      if (item.uid <= state.done_uid[owner]) continue;  // already covered
      state.done_uid[owner] = item.uid;
      state.done_void[owner] = item.tombstone ? 1 : 0;
      state.done_result[owner] =
          (item.tombstone || item.skip_effect)
              ? typename S::Result{}
              : S::apply(state.inner, item.op);
      ++fresh;
    }
    return fresh;
  }
};

static_assert(Sequential<BatchSeq<Counter>>);

/// Injectable protocol faults for the verify layer (mirrors
/// QaMutations): production code never sets these.
struct BatchMutations {
  /// The combiner drops one drained (non-self) op from the batch but
  /// still credits it: the announcer gets Ok with a default result and
  /// the effect is lost. The linearizability oracle must flag the
  /// resulting history.
  bool drop_from_batch = false;
};

template <Sequential S, class Base = AtomicBase>
class BatchedQaUniversal {
 public:
  using Env = typename Base::Env;
  using Home = typename Base::Home;
  using State = typename S::State;
  using Op = typename S::Op;
  using Result = typename S::Result;
  using Response = QaResponse<Result>;
  using BS = BatchSeq<S>;
  using Inner = QaUniversal<BS, Base>;
  using InnerStateRec = typename Inner::StateRec;
  using InnerRecord = typename Inner::Record;

  /// Patience of a process that never combines for its own ops: it is
  /// carried entirely by others' helping (set_patience).
  static constexpr int kNeverCombine = std::numeric_limits<int>::max();

  struct Options {
    /// Frontier polls an announcer grants the combiners before running
    /// the slot protocol itself (the helping slow-path trigger B).
    int patience = 8;
    /// Inner slot attempts in invoke()'s bounded slow path.
    int combine_attempts = 2;
    /// Announce lanes (0 = one per process); at least n.
    int lanes = 0;
  };

  /// Single-writer announce cell of one lane.
  struct Announce {
    std::uint64_t uid = 0;
    bool has_op = false;
    Op op{};
  };

  /// What collect() hands back: its result at once when a decided state
  /// the caller already holds has the lane's op, otherwise the
  /// coroutine that polls and combines until it is applied.
  class Collect {
   public:
    explicit Collect(Result hit) : hit_(std::move(hit)) {}
    explicit Collect(sim::Co<Result> wait) : wait_(std::move(wait)) {}

    bool await_ready() const noexcept { return hit_.has_value(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      return wait_->await_suspend(h);
    }
    Result await_resume() {
      return hit_ ? std::move(*hit_) : wait_->await_resume();
    }
    /// Outside the simulator: the hit, or the wait run to completion on
    /// the calling thread (sim::Co::run_inline).
    Result run_inline() && {
      return hit_ ? std::move(*hit_) : std::move(*wait_).run_inline();
    }

   private:
    std::optional<Result> hit_;
    std::optional<sim::Co<Result>> wait_;
  };

  BatchedQaUniversal(Home& home, State initial,
                     registers::AbortPolicy* policy = nullptr,
                     Options options = {})
      : home_(home),
        n_(Base::n(home)),
        lanes_(options.lanes > 0 ? options.lanes : n_),
        options_(options),
        inner_(home, make_genesis(lanes_, std::move(initial)), policy),
        board_(home),
        local_(n_),
        lane_(lanes_) {
    TBWF_ASSERT(lanes_ >= n_, "each process needs its own lane");
    ann_.reserve(lanes_);
    for (int l = 0; l < lanes_; ++l) {
      // A lane beyond n has no fixed writer: whichever process drives it.
      ann_.push_back(Base::template make<Announce>(
          home, "QaAnn[" + std::to_string(l) + "]", Announce{}, policy,
          l < n_ ? l : sim::kNoPid));
    }
    for (Local& me : local_) me.patience = options_.patience;
    if constexpr (Base::kExplored) {
      inner_.set_decide_hook(
          [this](sim::Pid decider, sim::Step step, const InnerStateRec& prev,
                 const InnerStateRec& decided) {
            record_commit(decider, step, prev, decided);
          });
    }
  }
  /// The decide hook refers to this.
  BatchedQaUniversal(const BatchedQaUniversal&) = delete;
  BatchedQaUniversal& operator=(const BatchedQaUniversal&) = delete;

  /// Saturating surface: announce once, then wait -- polling the
  /// frontier and combining every `patience` polls -- until the op is
  /// applied. Exactly-once by uid dedup; never returns bottom. Per-op
  /// completion is bounded whenever any process keeps committing
  /// batches (helping), and solo the caller combines for itself.
  sim::Co<Result> apply(Env& env, Op op) {
    const sim::Pid p = env.pid();
    // Single-writer cell: only an abortable base can make this spin,
    // and only under a concurrent combiner's drain read.
    bool landed = co_await announce(env, p, std::move(op));
    while (!landed) {
      co_await Base::yield(env);
      landed = co_await write_announce(env, p);
    }
    const Result result = co_await collect(env, p);
    co_return result;
  }

  /// Pipelined surface, stage 1: stage `op` on `lane` and issue its
  /// announce write. The awaiter yields true iff the write landed;
  /// write_announce() issues it again. A lane holds one staged op, and
  /// is collect()ed before it is staged again.
  auto announce(Env& env, int lane, Op op) {
    Lane& slot = lane_[lane];
    const std::uint64_t uid =
        ++slot.uid_counter * static_cast<std::uint64_t>(lanes_) +
        static_cast<std::uint64_t>(lane);
    slot.last_uid = uid;
    ++local_[env.pid()].ops_started;
    slot.mine = Announce{uid, true, std::move(op)};
    if constexpr (Base::kExplored) journal_announce(lane, uid, env.now());
    return write_announce(env, lane);
  }

  /// Writes the lane's staged announce (again).
  auto write_announce(Env& env, int lane) {
    ++local_[env.pid()].announce_writes;
    return Base::template write<Announce>(env, ann_[lane], lane_[lane].mine);
  }

  /// Pipelined surface, stage 2: the result of the lane's staged op,
  /// once applied (never bottom). A hit in a decided state the caller
  /// already holds answers at once, with no step and no frame; in
  /// apply() it cannot hit, since no step of the caller runs between
  /// announce and collect.
  Collect collect(Env& env, int lane) {
    const sim::Pid p = env.pid();
    const std::uint64_t uid = lane_[lane].last_uid;
    for (const InnerStateRec* known :
         {inner_.local_decided(p).get(), board_.seen(p)}) {
      if (known != nullptr && known->state.done_uid[lane] == uid) {
        TBWF_ASSERT(!known->state.done_void[lane],
                    "collect() op voided without a query tombstone");
        ++local_[p].fast_completions;
        return Collect(known->state.done_result[lane]);
      }
    }
    return Collect(wait_applied(env, lane, uid));
  }

  /// T_QA surface: bounded; may return bottom under contention.
  sim::Co<Response> invoke(Env& env, Op op) {
    const sim::Pid p = env.pid();
    Local& me = local_[p];
    const bool landed = co_await announce(env, p, std::move(op));
    if (!landed) {
      // Aborted announce write (abortable base): it may or may not be
      // visible to combiners, so the fate is open -- bottom; query
      // seals it with a tombstone.
      co_return Response::make_bottom();
    }
    const std::uint64_t uid = lane_[p].last_uid;
    for (int poll = 0; poll < me.patience; ++poll) {
      const InnerStateRec* fr = co_await poll_frontier(env);
      if (fr) {
        if (auto r = resolve(*fr, p, uid)) {
          ++me.fast_completions;
          co_return *r;
        }
      }
      // On threads, lead a combine at once if nobody does; the slow
      // path below ends the lead.
      if (options_.combine_attempts > 0 && board_.lead(env)) break;
    }
    for (int attempt = 0; attempt < options_.combine_attempts; ++attempt) {
      (void)co_await combine_once(env, /*tombstone_uid=*/0, p);
      board_.offer(env, inner_.local_decided(p));
      const InnerStateRec* fr = co_await inner_.read_frontier(env);
      if (fr) {
        if (auto r = resolve(*fr, p, uid)) co_return *r;
      }
    }
    co_return Response::make_bottom();
  }

  /// Fate of this process's last invoke (Ok / F / bottom); F is final.
  sim::Co<Response> query(Env& env) {
    const sim::Pid p = env.pid();
    const std::uint64_t uid = lane_[p].last_uid;
    if (uid == 0) co_return Response::make_not_applied();
    const InnerStateRec* fr = co_await inner_.read_frontier(env);
    if (fr) {
      if (auto r = resolve(*fr, p, uid)) co_return *r;
    }
    // Seal the fate (see file comment): a decided batch carrying our
    // tombstone makes the verdict final either way.
    const bool sealed = co_await combine_once(env, uid, p);
    board_.offer(env, inner_.local_decided(p));
    fr = co_await inner_.read_frontier(env);
    if (sealed && fr) {
      if (auto r = resolve(*fr, p, uid)) co_return *r;
    }
    co_return Response::make_bottom();
  }

  // -- introspection (non-step) ----------------------------------------------
  // Per-process and per-lane values are unsynchronized on threads: read
  // them from the owning thread or after joining it.
  Inner& inner() { return inner_; }
  const Inner& inner() const { return inner_; }
  int n() const { return n_; }
  int lanes() const { return lanes_; }
  /// Announces and commits, on the simulator's policies (empty on
  /// threads).
  const core::BatchLog& batch_log() const { return log_; }
  std::uint64_t ops_started(sim::Pid p) const { return local_[p].ops_started; }
  /// Slot-protocol runs this process performed as a combiner.
  std::uint64_t combines(sim::Pid p) const { return local_[p].combines; }
  /// Ops that completed purely by helping (no own combine).
  std::uint64_t fast_completions(sim::Pid p) const {
    return local_[p].fast_completions;
  }
  /// Shared-register writes p issued: announce writes plus the inner
  /// construction's promise/accept/decide publishes (E19 accounting).
  std::uint64_t shared_writes(sim::Pid p) const {
    return local_[p].announce_writes + inner_.publishes(p);
  }
  std::uint64_t last_real_uid(sim::Pid p) const { return lane_[p].last_uid; }
  decltype(auto) peek_announce(int lane) const {
    return Base::template peek<Announce>(home_, ann_[lane]);
  }
  const Announce& local_announce(int lane) const { return lane_[lane].mine; }

  void set_mutations(BatchMutations mutations) { mutations_ = mutations; }
  const BatchMutations& mutations() const { return mutations_; }
  /// Per-process patience override (helping/starvation experiments);
  /// on threads, set it before the thread starts issuing ops.
  /// kNeverCombine makes p a pure waiter.
  void set_patience(sim::Pid p, int patience) {
    local_[p].patience = patience;
  }

 private:
  /// Process p's private state; only p touches it.
  struct alignas(util::kCacheLineSize) Local {
    int patience = 0;
    std::uint64_t ops_started = 0;
    std::uint64_t combines = 0;
    std::uint64_t fast_completions = 0;
    std::uint64_t announce_writes = 0;
  };

  /// A lane's producer state; only the process driving the lane touches
  /// it.
  struct alignas(util::kCacheLineSize) Lane {
    /// Mirror of what the lane last tried to announce (== cell content
    /// under an atomic base; the combiner's self-drain uses this, never
    /// a read).
    Announce mine;
    std::uint64_t uid_counter = 0;
    std::uint64_t last_uid = 0;
  };

  static typename BS::State make_genesis(int lanes, State initial) {
    typename BS::State genesis;
    genesis.inner = std::move(initial);
    genesis.done_uid.assign(lanes, 0);
    genesis.done_void.assign(lanes, 0);
    genesis.done_result.assign(lanes, Result{});
    return genesis;
  }

  std::optional<Response> resolve(const InnerStateRec& fr, int lane,
                                  std::uint64_t uid) const {
    if (fr.state.done_uid[lane] != uid) return std::nullopt;
    if (fr.state.done_void[lane]) return Response::make_not_applied();
    return Response::make_ok(fr.state.done_result[lane]);
  }

  /// A waiter's poll: the board's latest decided state, or (in the
  /// simulator) a read pass over the records.
  auto poll_frontier(Env& env) {
    return board_.poll(env, [this, &env] { return inner_.read_frontier(env); });
  }

  /// collect()'s slow path: poll, and combine every `patience` polls or
  /// whenever the board says no combine is led, until the lane's op
  /// `uid` is applied.
  sim::Co<Result> wait_applied(Env& env, int lane, std::uint64_t uid) {
    const sim::Pid p = env.pid();
    Local& me = local_[p];
    int polls = 0;
    bool combined = false;
    for (;;) {
      const InnerStateRec* fr = co_await poll_frontier(env);
      if (fr && fr->state.done_uid[lane] == uid) {
        TBWF_ASSERT(!fr->state.done_void[lane],
                    "apply() op voided without a query tombstone");
        if (!combined) ++me.fast_completions;
        co_return fr->state.done_result[lane];
      }
      if (++polls > me.patience ||
          (me.patience != kNeverCombine && board_.lead(env))) {
        polls = 0;
        combined = true;
        (void)co_await combine_once(env, /*tombstone_uid=*/0, lane);
        board_.offer(env, inner_.local_decided(p));
      }
    }
  }

  /// Drain the announce array against the current frontier and commit
  /// one batch through the inner construction. The caller's own item
  /// for `self_lane` -- a tombstone when tombstone_uid != 0, else the
  /// lane's staged op -- comes from the local mirror, never from a read
  /// that could abort. Returns true iff a batch containing that item
  /// decided, or there was nothing pending.
  sim::Co<bool> combine_once(Env& env, std::uint64_t tombstone_uid,
                             int self_lane) {
    const sim::Pid p = env.pid();
    const InnerStateRec* fr = co_await inner_.read_frontier(env);
    if (!fr) co_return false;
    const auto& done = fr->state.done_uid;

    typename BS::Op batch;
    batch.reserve(static_cast<std::size_t>(lanes_) + 1);
    const Announce& mine = lane_[self_lane].mine;
    if (tombstone_uid != 0) {
      if (tombstone_uid > done[self_lane]) {
        BatchItem<S> item;
        item.owner = self_lane;
        item.uid = tombstone_uid;
        item.tombstone = true;
        batch.push_back(std::move(item));
      }
    } else if (mine.has_op && mine.uid > done[self_lane]) {
      batch.push_back(BatchItem<S>{self_lane, mine.uid, mine.op});
    }
    for (int q = 0; q < lanes_; ++q) {
      if (q == self_lane) continue;
      auto a = co_await Base::template read<Announce>(env, ann_[q]);
      if (!a.has_value()) continue;  // aborted drain read: helped later
      if (a->has_op && a->uid > done[static_cast<std::size_t>(q)]) {
        batch.push_back(BatchItem<S>{q, a->uid, a->op});
      }
    }
    if (mutations_.drop_from_batch) {
      // Deterministic victim: the last drained non-self item.
      for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
        if (it->owner != self_lane && !it->tombstone) {
          it->skip_effect = true;
          break;
        }
      }
    }
    if (batch.empty()) co_return true;  // nothing pending anywhere
    ++local_[p].combines;
    const auto resp = co_await inner_.invoke(env, std::move(batch));
    co_return resp.ok();
  }

  void journal_announce(int lane, std::uint64_t uid, sim::Step now) {
    core::BatchAnnounceEvent ev;
    ev.owner = lane;
    ev.uid = uid;
    ev.announced_at = now;
    announce_index_[uid] = log_.announces.size();
    log_.announces.push_back(std::move(ev));
  }

  void record_commit(sim::Pid decider, sim::Step step,
                     const InnerStateRec& prev, const InnerStateRec& decided) {
    // Two processes can both pass the decide fence for one slot (the
    // adopter and the original proposer) with the SAME value; log the
    // first only. Slots are journalled in order: slot s must be decided
    // (and hence logged) before any proposal for s+1 exists.
    if (decided.seq <= last_logged_slot_) return;
    last_logged_slot_ = decided.seq;
    core::BatchCommitEvent commit;
    commit.slot = decided.seq;
    commit.decider = decider;
    commit.step = step;
    for (int q = 0; q < lanes_; ++q) {
      const auto qi = static_cast<std::size_t>(q);
      if (decided.state.done_uid[qi] == prev.state.done_uid[qi]) continue;
      ++commit.batch_size;
      auto it = announce_index_.find(decided.state.done_uid[qi]);
      if (it != announce_index_.end()) {
        auto& ev = log_.announces[it->second];
        if (ev.applied_at == core::BatchAnnounceEvent::kNever) {
          ev.applied_at = step;
          ev.applied_slot = decided.seq;
          ev.voided = decided.state.done_void[qi] != 0;
        }
      }
    }
    log_.commits.push_back(commit);
  }

  Home& home_;
  int n_;
  int lanes_;
  Options options_;
  Inner inner_;
  typename Base::template Board<typename Inner::StatePtr> board_;
  std::vector<typename Base::template Reg<Announce>> ann_;
  std::vector<Local> local_;
  std::vector<Lane> lane_;
  core::BatchLog log_;
  std::unordered_map<std::uint64_t, std::size_t> announce_index_;
  std::uint64_t last_logged_slot_ = 0;
  BatchMutations mutations_;
};

}  // namespace tbwf::qa
