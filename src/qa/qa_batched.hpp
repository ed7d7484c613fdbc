// Batched fast-path/slow-path throughput engine in front of the QA
// universal construction (sim backend).
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
// Exactly-once demultiplexing: the batched object's state carries, per
// announcer, the highest applied uid and its result (done_uid /
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
#pragma once

#include <cstdint>
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
#include "sim/env.hpp"
#include "sim/world.hpp"
#include "util/assert.hpp"

namespace tbwf::qa {

/// One announced operation inside a BatchOp.
template <Sequential S>
struct BatchItem {
  sim::Pid owner = sim::kNoPid;
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
  using State = typename S::State;
  using Op = typename S::Op;
  using Result = typename S::Result;
  using Response = QaResponse<Result>;
  using BS = BatchSeq<S>;
  using Inner = QaUniversal<BS, Base>;
  using InnerStateRec = typename Inner::StateRec;
  using InnerRecord = typename Inner::Record;

  struct Options {
    /// Frontier polls an announcer grants the combiners before running
    /// the slot protocol itself (the helping slow-path trigger B).
    int patience = 8;
    /// Inner slot attempts in invoke()'s bounded slow path.
    int combine_attempts = 2;
  };

  /// Single-writer announce cell of process p.
  struct Announce {
    std::uint64_t uid = 0;
    bool has_op = false;
    Op op{};
  };

  BatchedQaUniversal(sim::World& world, State initial,
                     registers::AbortPolicy* policy = nullptr,
                     Options options = {})
      : world_(world),
        n_(world.n()),
        options_(options),
        inner_(world, make_genesis(world.n(), std::move(initial)), policy) {
    ann_.reserve(n_);
    for (sim::Pid p = 0; p < n_; ++p) {
      ann_.push_back(Base::template make<Announce>(
          world, "QaAnn[" + std::to_string(p) + "]", Announce{}, policy, p));
    }
    ann_mine_.assign(n_, Announce{});
    patience_.assign(n_, options_.patience);
    uid_counter_.assign(n_, 0);
    last_uid_.assign(n_, 0);
    ops_started_.assign(n_, 0);
    combines_.assign(n_, 0);
    fast_completions_.assign(n_, 0);
    announce_writes_.assign(n_, 0);
    inner_.set_decide_hook(
        [this](sim::Pid decider, sim::Step step, const InnerStateRec& prev,
               const InnerStateRec& decided) {
          record_commit(decider, step, prev, decided);
        });
  }

  /// Saturating surface: announce once, then wait -- polling the
  /// frontier and combining every `patience` polls -- until the op is
  /// applied. Exactly-once by uid dedup; never returns bottom. Per-op
  /// completion is bounded whenever any process keeps committing
  /// batches (helping), and solo the caller combines for itself.
  sim::Co<Result> apply(sim::SimEnv& env, Op op) {
    const sim::Pid p = env.pid();
    const std::uint64_t uid = announce(p, std::move(op), env.now());
    // Single-writer cell: only an abortable base can make this spin,
    // and only under a concurrent combiner's drain read.
    while (!co_await Base::template write<Announce>(env, ann_[p],
                                                    ann_mine_[p])) {
      co_await env.yield();
    }
    ++announce_writes_[p];
    int polls = 0;
    bool combined = false;
    for (;;) {
      auto fr = co_await inner_.read_frontier(env);
      if (fr && fr->state.done_uid[p] == uid) {
        TBWF_ASSERT(!fr->state.done_void[p],
                    "apply() op voided without a query tombstone");
        if (!combined) ++fast_completions_[p];
        co_return fr->state.done_result[p];
      }
      if (++polls > patience_[p]) {
        polls = 0;
        combined = true;
        (void)co_await combine_once(env, /*tombstone_uid=*/0);
      }
    }
  }

  /// T_QA surface: bounded; may return bottom under contention.
  sim::Co<Response> invoke(sim::SimEnv& env, Op op) {
    const sim::Pid p = env.pid();
    const std::uint64_t uid = announce(p, std::move(op), env.now());
    if (!co_await Base::template write<Announce>(env, ann_[p],
                                                 ann_mine_[p])) {
      // Aborted announce write (abortable base): it may or may not be
      // visible to combiners, so the fate is open -- bottom; query
      // seals it with a tombstone.
      co_return Response::make_bottom();
    }
    ++announce_writes_[p];
    for (int poll = 0; poll < patience_[p]; ++poll) {
      auto fr = co_await inner_.read_frontier(env);
      if (fr) {
        if (auto r = resolve(*fr, p, uid)) {
          ++fast_completions_[p];
          co_return *r;
        }
      }
    }
    for (int attempt = 0; attempt < options_.combine_attempts; ++attempt) {
      (void)co_await combine_once(env, /*tombstone_uid=*/0);
      auto fr = co_await inner_.read_frontier(env);
      if (fr) {
        if (auto r = resolve(*fr, p, uid)) co_return *r;
      }
    }
    co_return Response::make_bottom();
  }

  /// Fate of this process's last invoke (Ok / F / bottom); F is final.
  sim::Co<Response> query(sim::SimEnv& env) {
    const sim::Pid p = env.pid();
    const std::uint64_t uid = last_uid_[p];
    if (uid == 0) co_return Response::make_not_applied();
    auto fr = co_await inner_.read_frontier(env);
    if (fr) {
      if (auto r = resolve(*fr, p, uid)) co_return *r;
    }
    // Seal the fate (see file comment): a decided batch carrying our
    // tombstone makes the verdict final either way.
    const bool sealed = co_await combine_once(env, uid);
    fr = co_await inner_.read_frontier(env);
    if (sealed && fr) {
      if (auto r = resolve(*fr, p, uid)) co_return *r;
    }
    co_return Response::make_bottom();
  }

  // -- introspection (non-step) ----------------------------------------------
  Inner& inner() { return inner_; }
  const Inner& inner() const { return inner_; }
  int n() const { return n_; }
  const core::BatchLog& batch_log() const { return log_; }
  std::uint64_t ops_started(sim::Pid p) const { return ops_started_[p]; }
  /// Slot-protocol runs this process performed as a combiner.
  std::uint64_t combines(sim::Pid p) const { return combines_[p]; }
  /// Ops that completed purely by helping (no own combine).
  std::uint64_t fast_completions(sim::Pid p) const {
    return fast_completions_[p];
  }
  /// Shared-register writes p issued: announce writes plus the inner
  /// construction's promise/accept/decide publishes (E19 accounting).
  std::uint64_t shared_writes(sim::Pid p) const {
    return announce_writes_[p] + inner_.publishes(p);
  }
  std::uint64_t last_real_uid(sim::Pid p) const { return last_uid_[p]; }
  const Announce& peek_announce(sim::Pid p) const {
    return world_.template peek<Announce>(ann_[p].idx);
  }
  const Announce& local_announce(sim::Pid p) const { return ann_mine_[p]; }

  void set_mutations(BatchMutations mutations) { mutations_ = mutations; }
  const BatchMutations& mutations() const { return mutations_; }
  /// Per-process patience override (helping/starvation experiments).
  void set_patience(sim::Pid p, int patience) { patience_[p] = patience; }

 private:
  static typename BS::State make_genesis(int n, State initial) {
    typename BS::State genesis;
    genesis.inner = std::move(initial);
    genesis.done_uid.assign(n, 0);
    genesis.done_void.assign(n, 0);
    genesis.done_result.assign(n, Result{});
    return genesis;
  }

  std::uint64_t announce(sim::Pid p, Op op, sim::Step now) {
    const std::uint64_t uid = ++uid_counter_[p] * n_ + p;
    last_uid_[p] = uid;
    ++ops_started_[p];
    ann_mine_[p] = Announce{uid, true, std::move(op)};
    core::BatchAnnounceEvent ev;
    ev.owner = p;
    ev.uid = uid;
    ev.announced_at = now;
    announce_index_[uid] = log_.announces.size();
    log_.announces.push_back(std::move(ev));
    return uid;
  }

  std::optional<Response> resolve(const InnerStateRec& fr, sim::Pid p,
                                  std::uint64_t uid) const {
    if (fr.state.done_uid[p] != uid) return std::nullopt;
    if (fr.state.done_void[p]) return Response::make_not_applied();
    return Response::make_ok(fr.state.done_result[p]);
  }

  /// Drain the announce array against the current frontier and commit
  /// one batch through the inner construction. Returns true iff a batch
  /// containing this caller's item (op or tombstone) decided, or there
  /// was nothing pending.
  sim::Co<bool> combine_once(sim::SimEnv& env, std::uint64_t tombstone_uid) {
    const sim::Pid p = env.pid();
    auto fr = co_await inner_.read_frontier(env);
    if (!fr) co_return false;
    const auto& done = fr->state.done_uid;

    typename BS::Op batch;
    batch.reserve(static_cast<std::size_t>(n_) + 1);
    if (tombstone_uid != 0) {
      if (tombstone_uid > done[p]) {
        BatchItem<S> item;
        item.owner = p;
        item.uid = tombstone_uid;
        item.tombstone = true;
        batch.push_back(std::move(item));
      }
    } else if (ann_mine_[p].has_op && ann_mine_[p].uid > done[p]) {
      batch.push_back(BatchItem<S>{p, ann_mine_[p].uid, ann_mine_[p].op});
    }
    for (sim::Pid q = 0; q < n_; ++q) {
      if (q == p) continue;
      auto a = co_await Base::template read<Announce>(env, ann_[q]);
      if (!a.has_value()) continue;  // aborted drain read: helped later
      if (a->has_op && a->uid > done[static_cast<std::size_t>(q)]) {
        batch.push_back(BatchItem<S>{q, a->uid, a->op});
      }
    }
    if (mutations_.drop_from_batch) {
      // Deterministic victim: the last drained non-self item.
      for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
        if (it->owner != p && !it->tombstone) {
          it->skip_effect = true;
          break;
        }
      }
    }
    if (batch.empty()) co_return true;  // nothing pending anywhere
    ++combines_[p];
    const auto resp = co_await inner_.invoke(env, std::move(batch));
    co_return resp.ok();
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
    for (sim::Pid q = 0; q < n_; ++q) {
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

  sim::World& world_;
  int n_;
  Options options_;
  Inner inner_;
  std::vector<typename Base::template Reg<Announce>> ann_;
  /// Mirror of what p last tried to announce (== cell content under an
  /// atomic base; the combiner's self-drain uses this, never a read).
  std::vector<Announce> ann_mine_;
  std::vector<int> patience_;
  std::vector<std::uint64_t> uid_counter_;
  std::vector<std::uint64_t> last_uid_;
  std::vector<std::uint64_t> ops_started_;
  std::vector<std::uint64_t> combines_;
  std::vector<std::uint64_t> fast_completions_;
  std::vector<std::uint64_t> announce_writes_;
  core::BatchLog log_;
  std::unordered_map<std::uint64_t, std::size_t> announce_index_;
  std::uint64_t last_logged_slot_ = 0;
  BatchMutations mutations_;
};

}  // namespace tbwf::qa
