// Handwritten wait-free bounded MPMC queue -- the specialist twin of
// QaUniversal<BoundedQueueOf<Cap>>.
//
// One single-writer register per process holding an append-only record
// of (a) enqueue items stamped with a Lamport timestamp and a
// commit state, and (b) dequeue *claims* naming an item and a turn.
// The abstract queue is derived: committed items ordered by
// (ts, owner), minus items named by confirmed claims.
//
// Enqueue: collect, stamp ts = max seen + 1.
//   - fast path: if committed-unconsumed <= Cap - n, append a
//     committed item directly (the slack n covers every concurrent
//     unseen append -- each process has at most one in flight).
//   - near-full slow path: append the item *tentative*, re-collect,
//     then either (i) conclude full (stable double-collect showing
//     >= Cap unconsumed: retract, return kFull), (ii) commit (stable
//     double-collect, no foreign tentative item or pending claim, and
//     room left -- the solo-stable case; or room with full slack), or
//     (iii) retract and answer bottom. A retracted item never counts.
// Dequeue: collect; a foreign pending claim is contention -> bottom.
//   Otherwise claim the oldest unconsumed item (publish pending
//   claim), validate with a second collect (any foreign pending claim,
//   the item consumed, or a new older item -> retract, bottom), then
//   confirm. Publish-then-validate gives per-turn mutual exclusion: of
//   two claimants for one turn, whichever published second necessarily
//   reads the other's pending claim during validation and retracts.
// Empty/full verdicts come from clean double-collects (the collected
// state co-existed between the two collects), so Ok(kEmpty)/Ok(kFull)
// linearize inside the operation's interval.
//
// T_QA surface: contention can yield bottom, but on atomic registers
// every return path settles the caller's own tentative item / pending
// claim first (self-help on abort), so a bottomed op's fate is final
// and query resolves it to Ok or F -- and a crashed process can wedge
// at most its own claim, never another's record. Solo runs take the
// fast path or the solo-stable path and never answer bottom.
//
// The protocol is written over a base-register policy
// (zoo/specialist.hpp). On abortable registers a write that aborted may
// still have landed, so the settlement follows what the write was: a
// committed item or a confirmed claim is parked until it lands (another
// process may already have counted or consumed it), a tentative item or
// a pending claim is voided by parking its retraction. Either way query
// answers once the parked write lands. Each operation runs in one
// coroutine frame: the collects are loops in enqueue/dequeue.
//
// Mutation seam: drop_claim_fence skips dequeue validation -- two
// dequeuers can then confirm the same turn and both return the same
// value, which the Wing-Gong oracle flags as non-linearizable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qa/qa_object.hpp"
#include "qa/qa_universal.hpp"
#include "registers/abort_policy.hpp"
#include "sim/co.hpp"
#include "util/hash.hpp"
#include "zoo/specialist.hpp"
#include "zoo/zoo_types.hpp"

namespace tbwf::zoo {

struct TurnQueueMutations {
  /// Dequeue confirms without the validation collect.
  bool drop_claim_fence = false;
};

template <int Cap, class Base = qa::AtomicBase>
class TurnQueue {
 public:
  using S = BoundedQueueOf<Cap>;
  using State = typename S::State;
  using Op = typename S::Op;
  using Result = typename S::Result;
  using Response = qa::QaResponse<Result>;
  using Env = typename Base::Env;
  using Home = typename Base::Home;

  TurnQueue(Home& home, State initial,
            registers::AbortPolicy* policy = nullptr)
      : home_(home), n_(Base::n(home)), slices_(n_) {
    Rec genesis;
    // Pre-loaded items live in p0's record with ascending timestamps.
    std::uint64_t ts = 0;
    for (const std::int64_t v : initial) {
      genesis.items.push_back(Item{v, ++ts, kCommitted});
    }
    recs_.reserve(n_);
    for (sim::Pid p = 0; p < n_; ++p) {
      recs_.push_back(Base::template make<Rec>(
          home, "zoo.queue.rec." + std::to_string(p),
          p == 0 ? genesis : Rec{}, policy, p));
    }
  }

  void set_mutations(TurnQueueMutations m) { mut_ = m; }

  /// The operation's one frame is enqueue's or dequeue's.
  sim::Co<Response> invoke(Env& env, Op op) {
    Slice& me = slices_[env.pid()];
    me.op_digest = util::kFnvOffset;
    if (op.is_enqueue) return enqueue(env, me, op.value);
    return dequeue(env, me);
  }

  /// Every invoke settles its own item/claim before returning (or parks
  /// the write that settles it), so the last op's fate is Ok or F once
  /// nothing is parked.
  sim::Co<Response> query(Env& env) {
    const sim::Pid p = env.pid();
    return query_fate<Base>(env, recs_[p], slices_[p]);
  }

  /// Quiescent-only abstract state for differential cross-checks:
  /// committed unconsumed items in (ts, owner) order.
  State abstract_state() const {
    View view;
    view.reserve(static_cast<std::size_t>(n_));
    for (sim::Pid q = 0; q < n_; ++q) view.push_back(peek(q));
    State state;
    for (const ItemRef& ref : unconsumed(view)) state.push_back(ref.value);
    return state;
  }

  std::uint64_t fingerprint() const {
    std::uint64_t h = util::kFnvOffset;
    for (sim::Pid p = 0; p < n_; ++p) h = fold_rec(h, peek(p));
    // A pending op's continuation (held collect, chosen head item) is a
    // deterministic function of the values it has read so far; without
    // the per-pid read digests, explorer state caching merges states
    // whose registers agree but whose in-flight dequeues hold different
    // views -- exactly how the dropped-fence double-dequeue once hid.
    for (const Slice& me : slices_) h = util::hash_mix(h, me.op_digest);
    for (const Slice& me : slices_) h = me.fold_parked(h, fold_rec);
    return h;
  }

  int n() const { return n_; }

 private:
  enum ItemState : std::uint8_t { kTentative = 0, kCommitted, kRetracted };
  enum ClaimState : std::uint8_t { kPending = 0, kConfirmed, kDropped };

  struct Item {
    std::int64_t value = 0;
    std::uint64_t ts = 0;
    std::uint8_t state = kTentative;
  };
  struct Claim {
    sim::Pid owner = 0;       ///< owner of the claimed item
    std::uint32_t index = 0;  ///< index into the owner's item log
    std::uint32_t turn = 0;   ///< consumed count in the claimant's view
    std::uint8_t state = kPending;
  };
  struct Rec {
    std::vector<Item> items;
    std::vector<Claim> claims;
  };
  using View = std::vector<Rec>;
  using Slice = SpecialistSlice<Rec, Result>;

  struct ItemRef {
    sim::Pid owner = 0;
    std::uint32_t index = 0;
    std::uint64_t ts = 0;
    std::int64_t value = 0;
    bool operator<(const ItemRef& o) const {
      return ts != o.ts ? ts < o.ts : owner < o.owner;
    }
    bool same(const ItemRef& o) const {
      return owner == o.owner && index == o.index;
    }
  };

  // -- view helpers (pure, over a collected View) -------------------------

  static bool consumed_in(const View& view, sim::Pid owner,
                          std::uint32_t index) {
    for (const Rec& rec : view) {
      for (const Claim& c : rec.claims) {
        if (c.state == kConfirmed && c.owner == owner && c.index == index) {
          return true;
        }
      }
    }
    return false;
  }

  static std::uint64_t consumed_count(const View& view) {
    std::uint64_t count = 0;
    for (const Rec& rec : view) {
      for (const Claim& c : rec.claims) {
        if (c.state == kConfirmed) ++count;
      }
    }
    return count;
  }

  /// Committed items not named by a confirmed claim, (ts, owner) sorted.
  static std::vector<ItemRef> unconsumed(const View& view) {
    std::vector<ItemRef> out;
    for (sim::Pid q = 0; q < static_cast<sim::Pid>(view.size()); ++q) {
      const Rec& rec = view[static_cast<std::size_t>(q)];
      for (std::uint32_t k = 0; k < rec.items.size(); ++k) {
        if (rec.items[k].state != kCommitted) continue;
        if (consumed_in(view, q, k)) continue;
        out.push_back(ItemRef{q, k, rec.items[k].ts, rec.items[k].value});
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  static bool foreign_pending_claim(const View& view, sim::Pid self) {
    for (sim::Pid q = 0; q < static_cast<sim::Pid>(view.size()); ++q) {
      if (q == self) continue;
      for (const Claim& c : view[static_cast<std::size_t>(q)].claims) {
        if (c.state == kPending) return true;
      }
    }
    return false;
  }

  static bool foreign_tentative_item(const View& view, sim::Pid self) {
    for (sim::Pid q = 0; q < static_cast<sim::Pid>(view.size()); ++q) {
      if (q == self) continue;
      for (const Item& item : view[static_cast<std::size_t>(q)].items) {
        if (item.state == kTentative) return true;
      }
    }
    return false;
  }

  static std::uint64_t max_ts(const View& view) {
    std::uint64_t ts = 0;
    for (const Rec& rec : view) {
      for (const Item& item : rec.items) {
        if (item.ts > ts) ts = item.ts;
      }
    }
    return ts;
  }

  /// Double-collect stability over every record EXCEPT the caller's own:
  /// the caller writes its own record between collects (tentative
  /// append, claim publish), which must not defeat the double-collect;
  /// only foreign quiescence carries the co-existence argument.
  static bool foreign_stable(const View& a, const View& b, sim::Pid self) {
    for (sim::Pid q = 0; q < static_cast<sim::Pid>(a.size()); ++q) {
      if (q == self) continue;
      const Rec& x = a[static_cast<std::size_t>(q)];
      const Rec& y = b[static_cast<std::size_t>(q)];
      if (!std::equal(x.items.begin(), x.items.end(), y.items.begin(),
                      y.items.end(), [](const Item& i, const Item& j) {
                        return i.state == j.state;
                      }) ||
          !std::equal(x.claims.begin(), x.claims.end(), y.claims.begin(),
                      y.claims.end(), [](const Claim& c, const Claim& d) {
                        return c.state == d.state;
                      })) {
        return false;
      }
    }
    return true;
  }

  static std::uint64_t fold_rec(std::uint64_t h, const Rec& rec) {
    h = util::hash_mix(h, rec.items.size());
    for (const Item& item : rec.items) {
      h = util::hash_mix(h, item.value);
      h = util::hash_mix(h, item.ts);
      h = util::hash_mix(h, item.state);
    }
    h = util::hash_mix(h, rec.claims.size());
    for (const Claim& c : rec.claims) {
      h = util::hash_mix(h, c.owner);
      h = util::hash_mix(h, c.index);
      h = util::hash_mix(h, c.turn);
      h = util::hash_mix(h, c.state);
    }
    return h;
  }

  static void fold_read(Slice& me, const Rec& rec) {
    if constexpr (Base::kExplored) me.op_digest = fold_rec(me.op_digest, rec);
  }

  auto read(Env& env, sim::Pid q) {
    return Base::template read<Rec>(env, recs_[static_cast<std::size_t>(q)]);
  }
  /// The caller keeps `rec`, to park it if the write aborts.
  auto write(Env& env, sim::Pid q, const Rec& rec) {
    return Base::template write<Rec>(env, recs_[static_cast<std::size_t>(q)],
                                     rec);
  }
  decltype(auto) peek(sim::Pid q) const {
    return Base::template peek<Rec>(home_, recs_[static_cast<std::size_t>(q)]);
  }

  // Each own-record rewrite (an append, or settling the last item or
  // claim) reads the record first and writes it back changed. The
  // caller is the record's only writer, so a settling rewrite whose read
  // aborts goes on with the record it last wrote.

  // -- enqueue ------------------------------------------------------------

  sim::Co<Response> enqueue(Env& env, Slice& me, std::int64_t v) {
    const sim::Pid p = env.pid();
    if (!co_await land_parked<Base>(env, recs_[p], me)) co_return me.abort();
    View c1(static_cast<std::size_t>(n_));
    for (sim::Pid q = 0; q < n_; ++q) {
      std::optional<Rec> rec = co_await read(env, q);
      if (!rec) co_return me.abort();
      fold_read(me, *rec);
      c1[static_cast<std::size_t>(q)] = std::move(*rec);
    }
    const std::uint64_t ts = max_ts(c1) + 1;
    const int size1 = static_cast<int>(unconsumed(c1).size());
    // Fast path: even if every other process lands one unseen item, the
    // bound holds, so the item goes in committed. Near-full slow path:
    // append it tentative, validate, then commit / conclude full /
    // retract.
    const bool fast = size1 + n_ <= Cap;
    std::optional<Rec> mine = co_await read(env, p);
    if (!mine) co_return me.abort();
    fold_read(me, *mine);
    mine->items.push_back(Item{v, ts, fast ? kCommitted : kTentative});
    if (!co_await write(env, p, *mine)) {
      if (fast) co_return me.park(std::move(*mine), Response::make_ok(v));
      mine->items.back().state = kRetracted;
      co_return me.park(std::move(*mine), Response::make_not_applied());
    }
    if (fast) co_return me.finish(Response::make_ok(v));

    View c2(static_cast<std::size_t>(n_));
    for (sim::Pid q = 0; q < n_; ++q) {
      std::optional<Rec> rec = co_await read(env, q);
      if (!rec) {
        mine->items.back().state = kRetracted;
        co_return me.park(std::move(*mine), Response::make_not_applied());
      }
      fold_read(me, *rec);
      c2[static_cast<std::size_t>(q)] = std::move(*rec);
    }
    const int size2 = static_cast<int>(unconsumed(c2).size());
    const bool stable = foreign_stable(c1, c2, p);
    // Retract and answer bottom (fate F), unless:
    std::uint8_t state = kRetracted;
    Response answer = Response::make_bottom();
    Response fate = Response::make_not_applied();
    if (size2 >= Cap && stable) {
      // The >= Cap unconsumed items co-existed between the collects:
      // the queue was full inside our interval.
      answer = fate = Response::make_ok(S::kFull);
    } else if (size2 < Cap &&
               (size2 + n_ <= Cap ||
                (stable && !foreign_tentative_item(c2, p) &&
                 !foreign_pending_claim(c2, p)))) {
      // Full slack, or solo-stable: any unseen concurrent appender
      // will observe our (tentative or committed) item during ITS
      // validation and yield, so committing here cannot overflow.
      state = kCommitted;
      answer = fate = Response::make_ok(v);
    }
    std::optional<Rec> cur = co_await read(env, p);
    if (cur) {
      fold_read(me, *cur);
      mine = std::move(cur);
    }
    mine->items.back().state = state;
    if (!co_await write(env, p, *mine)) {
      co_return me.park(std::move(*mine), std::move(fate));
    }
    co_return me.settle(std::move(answer), std::move(fate));
  }

  // -- dequeue ------------------------------------------------------------

  sim::Co<Response> dequeue(Env& env, Slice& me) {
    const sim::Pid p = env.pid();
    if (!co_await land_parked<Base>(env, recs_[p], me)) co_return me.abort();
    View c1(static_cast<std::size_t>(n_));
    for (sim::Pid q = 0; q < n_; ++q) {
      std::optional<Rec> rec = co_await read(env, q);
      if (!rec) co_return me.abort();
      fold_read(me, *rec);
      c1[static_cast<std::size_t>(q)] = std::move(*rec);
    }
    if (foreign_pending_claim(c1, p)) co_return me.abort();
    const std::vector<ItemRef> items = unconsumed(c1);
    if (items.empty()) {
      View c2(static_cast<std::size_t>(n_));
      for (sim::Pid q = 0; q < n_; ++q) {
        std::optional<Rec> rec = co_await read(env, q);
        if (!rec) co_return me.abort();
        fold_read(me, *rec);
        c2[static_cast<std::size_t>(q)] = std::move(*rec);
      }
      if (foreign_stable(c1, c2, p)) {
        co_return me.finish(Response::make_ok(S::kEmpty));
      }
      co_return me.abort();
    }
    const ItemRef head = items.front();
    // Publish a pending claim for the head item's turn.
    std::optional<Rec> mine = co_await read(env, p);
    if (!mine) co_return me.abort();
    fold_read(me, *mine);
    mine->claims.push_back(
        Claim{head.owner, head.index,
              static_cast<std::uint32_t>(consumed_count(c1)), kPending});
    if (!co_await write(env, p, *mine)) {
      mine->claims.back().state = kDropped;
      co_return me.park(std::move(*mine), Response::make_not_applied());
    }
    std::uint8_t state = kConfirmed;
    if (!mut_.drop_claim_fence) {
      View c2(static_cast<std::size_t>(n_));
      for (sim::Pid q = 0; q < n_; ++q) {
        std::optional<Rec> rec = co_await read(env, q);
        if (!rec) {
          mine->claims.back().state = kDropped;
          co_return me.park(std::move(*mine), Response::make_not_applied());
        }
        fold_read(me, *rec);
        c2[static_cast<std::size_t>(q)] = std::move(*rec);
      }
      const std::vector<ItemRef> items2 = unconsumed(c2);
      const bool head_gone = items2.empty() || !items2.front().same(head);
      if (foreign_pending_claim(c2, p) || head_gone) state = kDropped;
    }
    const Response fate = state == kConfirmed
                              ? Response::make_ok(head.value)
                              : Response::make_not_applied();
    std::optional<Rec> cur = co_await read(env, p);
    if (cur) {
      fold_read(me, *cur);
      mine = std::move(cur);
    }
    mine->claims.back().state = state;
    if (!co_await write(env, p, *mine)) {
      co_return me.park(std::move(*mine), fate);
    }
    co_return me.settle(fate.ok() ? fate : Response::make_bottom(), fate);
  }

  Home& home_;
  int n_;
  std::vector<typename Base::template Reg<Rec>> recs_;
  std::vector<Slice> slices_;
  TurnQueueMutations mut_;
};

}  // namespace tbwf::zoo
