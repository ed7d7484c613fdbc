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
// T_QA surface: contention can yield bottom, but every return path
// settles the caller's own tentative item / pending claim first
// (self-help on abort), so a bottomed op's fate is already final and
// query resolves it to Ok or F from local state alone -- and a crashed
// process can wedge at most its own claim, never another's record.
// Solo runs take the fast path or the solo-stable path and never
// answer bottom.
//
// Mutation seam: drop_claim_fence skips dequeue validation -- two
// dequeuers can then confirm the same turn and both return the same
// value, which the Wing-Gong oracle flags as non-linearizable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "qa/qa_object.hpp"
#include "sim/env.hpp"
#include "sim/world.hpp"
#include "util/hash.hpp"
#include "zoo/zoo_types.hpp"

namespace tbwf::zoo {

struct TurnQueueMutations {
  /// Dequeue confirms without the validation collect.
  bool drop_claim_fence = false;
};

template <int Cap>
class TurnQueue {
 public:
  using S = BoundedQueueOf<Cap>;
  using Result = typename S::Result;
  using Response = qa::QaResponse<Result>;

  TurnQueue(sim::World& world, typename S::State initial)
      : world_(world), n_(world.n()) {
    Rec genesis;
    // Pre-loaded items live in p0's record with ascending timestamps.
    std::uint64_t ts = 0;
    for (const std::int64_t v : initial) {
      genesis.items.push_back(Item{v, ++ts, kCommitted});
    }
    recs_.reserve(n_);
    for (sim::Pid p = 0; p < n_; ++p) {
      recs_.push_back(world.make_atomic<Rec>(
          "zoo.queue.rec." + std::to_string(p), p == 0 ? genesis : Rec{}));
    }
    last_.assign(n_, Response::make_not_applied());
    has_op_.assign(n_, false);
    op_digest_.assign(n_, 0);
  }

  void set_mutations(TurnQueueMutations m) { mut_ = m; }

  sim::Co<Response> invoke(sim::SimEnv& env, typename S::Op op) {
    const sim::Pid p = env.pid();
    const std::size_t i = static_cast<std::size_t>(p);
    has_op_[i] = true;
    op_digest_[i] = util::kFnvOffset;
    // if/else, not ?: with a co_await in each arm (GCC 12 miscompiles
    // that shape; see core::TbwfObject::invoke).
    Response r;
    if (op.is_enqueue) {
      r = co_await enqueue(env, p, op.value);
    } else {
      r = co_await dequeue(env, p);
    }
    last_[i] = r;
    // Coroutine locals (collected views, the chosen head) die here.
    op_digest_[i] = 0;
    co_return r;
  }

  /// Every invoke settles its own item/claim before returning, so the
  /// last op's fate is final and locally known: bottom never survives
  /// a query here.
  sim::Co<Response> query(sim::SimEnv& env) {
    const std::size_t i = static_cast<std::size_t>(env.pid());
    co_await env.yield();
    if (!has_op_[i]) co_return Response::make_not_applied();
    if (last_[i].bottom()) co_return Response::make_not_applied();
    co_return last_[i];
  }

  /// Quiescent-only abstract state for differential cross-checks:
  /// committed unconsumed items in (ts, owner) order.
  typename S::State abstract_state() const {
    View view = peek_view();
    typename S::State state;
    for (const ItemRef& ref : unconsumed(view)) state.push_back(ref.value);
    return state;
  }

  std::uint64_t fingerprint() const {
    std::uint64_t h = util::kFnvOffset;
    for (sim::Pid p = 0; p < n_; ++p) {
      fold_rec(h, world_.peek<Rec>(recs_[static_cast<std::size_t>(p)]));
    }
    // A pending op's continuation (held collect, chosen head item) is a
    // deterministic function of the values it has read so far; without
    // the per-pid read digests, explorer state caching merges states
    // whose registers agree but whose in-flight dequeues hold different
    // views -- exactly how the dropped-fence double-dequeue once hid.
    for (sim::Pid p = 0; p < n_; ++p) {
      h = util::hash_mix(h, op_digest_[static_cast<std::size_t>(p)]);
    }
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
    std::uint64_t turn = 0;   ///< consumed count in the claimant's view
    std::uint8_t state = kPending;
  };
  struct Rec {
    std::vector<Item> items;
    std::vector<Claim> claims;
  };
  using View = std::vector<Rec>;

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

  /// Stability digest over every record EXCEPT the caller's own: the
  /// caller writes its own record between collects (tentative append,
  /// claim publish), which must not defeat the double-collect; only
  /// foreign quiescence carries the co-existence argument.
  static std::uint64_t view_digest(const View& view, sim::Pid self) {
    std::uint64_t h = util::kFnvOffset;
    for (sim::Pid q = 0; q < static_cast<sim::Pid>(view.size()); ++q) {
      if (q == self) continue;
      const Rec& rec = view[static_cast<std::size_t>(q)];
      h = util::hash_mix(h, rec.items.size());
      for (const Item& item : rec.items) h = util::hash_mix(h, item.state);
      h = util::hash_mix(h, rec.claims.size());
      for (const Claim& c : rec.claims) h = util::hash_mix(h, c.state);
    }
    return h;
  }

  static void fold_rec(std::uint64_t& h, const Rec& rec) {
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
  }

  void fold_read(sim::Pid p, const Rec& rec) {
    fold_rec(op_digest_[static_cast<std::size_t>(p)], rec);
  }

  sim::Co<View> collect(sim::SimEnv& env) {
    const sim::Pid p = env.pid();
    View view;
    view.reserve(static_cast<std::size_t>(n_));
    for (sim::Pid q = 0; q < n_; ++q) {
      view.push_back(co_await env.read(recs_[static_cast<std::size_t>(q)]));
      fold_read(p, view.back());
    }
    co_return view;
  }

  View peek_view() const {
    View view;
    view.reserve(static_cast<std::size_t>(n_));
    for (sim::Pid q = 0; q < n_; ++q) {
      view.push_back(world_.peek<Rec>(recs_[static_cast<std::size_t>(q)]));
    }
    return view;
  }

  /// Rewrite the state of the caller's last item (append order).
  sim::Co<void> set_last_item_state(sim::SimEnv& env, sim::Pid p,
                                    std::uint8_t state) {
    Rec mine = co_await env.read(recs_[static_cast<std::size_t>(p)]);
    fold_read(p, mine);
    mine.items.back().state = state;
    co_await env.write(recs_[static_cast<std::size_t>(p)], mine);
  }

  sim::Co<void> set_last_claim_state(sim::SimEnv& env, sim::Pid p,
                                     std::uint8_t state) {
    Rec mine = co_await env.read(recs_[static_cast<std::size_t>(p)]);
    fold_read(p, mine);
    mine.claims.back().state = state;
    co_await env.write(recs_[static_cast<std::size_t>(p)], mine);
  }

  // -- enqueue ------------------------------------------------------------

  sim::Co<Response> enqueue(sim::SimEnv& env, sim::Pid p, std::int64_t v) {
    View c1 = co_await collect(env);
    const std::uint64_t ts = max_ts(c1) + 1;
    const int size1 = static_cast<int>(unconsumed(c1).size());
    if (size1 + n_ <= Cap) {
      // Fast path: even if every other process lands one unseen item,
      // the bound holds.
      Rec mine = co_await env.read(recs_[static_cast<std::size_t>(p)]);
      fold_read(p, mine);
      mine.items.push_back(Item{v, ts, kCommitted});
      co_await env.write(recs_[static_cast<std::size_t>(p)], mine);
      co_return Response::make_ok(v);
    }
    // Near-full slow path: tentative append, validate, then commit /
    // conclude full / retract.
    {
      Rec mine = co_await env.read(recs_[static_cast<std::size_t>(p)]);
      fold_read(p, mine);
      mine.items.push_back(Item{v, ts, kTentative});
      co_await env.write(recs_[static_cast<std::size_t>(p)], mine);
    }
    View c2 = co_await collect(env);
    const int size2 = static_cast<int>(unconsumed(c2).size());
    const bool stable = view_digest(c1, p) == view_digest(c2, p);
    if (size2 >= Cap && stable) {
      // The >= Cap unconsumed items co-existed between the collects:
      // the queue was full inside our interval.
      co_await set_last_item_state(env, p, kRetracted);
      co_return Response::make_ok(S::kFull);
    }
    const bool quiet = stable && !foreign_tentative_item(c2, p) &&
                       !foreign_pending_claim(c2, p);
    if (size2 < Cap && (size2 + n_ <= Cap || quiet)) {
      // Full slack, or solo-stable: any unseen concurrent appender
      // will observe our (tentative or committed) item during ITS
      // validation and yield, so committing here cannot overflow.
      co_await set_last_item_state(env, p, kCommitted);
      co_return Response::make_ok(v);
    }
    co_await set_last_item_state(env, p, kRetracted);
    co_return Response::make_bottom();
  }

  // -- dequeue ------------------------------------------------------------

  sim::Co<Response> dequeue(sim::SimEnv& env, sim::Pid p) {
    View c1 = co_await collect(env);
    if (foreign_pending_claim(c1, p)) co_return Response::make_bottom();
    std::vector<ItemRef> items = unconsumed(c1);
    if (items.empty()) {
      View c2 = co_await collect(env);
      if (view_digest(c1, p) == view_digest(c2, p)) {
        co_return Response::make_ok(S::kEmpty);
      }
      co_return Response::make_bottom();
    }
    const ItemRef head = items.front();
    {  // Publish a pending claim for the head item's turn.
      Rec mine = co_await env.read(recs_[static_cast<std::size_t>(p)]);
      fold_read(p, mine);
      mine.claims.push_back(
          Claim{head.owner, head.index, consumed_count(c1), kPending});
      co_await env.write(recs_[static_cast<std::size_t>(p)], mine);
    }
    if (!mut_.drop_claim_fence) {
      View c2 = co_await collect(env);
      std::vector<ItemRef> items2 = unconsumed(c2);
      const bool head_gone =
          items2.empty() || !items2.front().same(head);
      if (foreign_pending_claim(c2, p) || head_gone) {
        co_await set_last_claim_state(env, p, kDropped);
        co_return Response::make_bottom();
      }
    }
    co_await set_last_claim_state(env, p, kConfirmed);
    co_return Response::make_ok(head.value);
  }

  sim::World& world_;
  int n_;
  std::vector<sim::AtomicReg<Rec>> recs_;
  std::vector<Response> last_;
  std::vector<bool> has_op_;
  std::vector<std::uint64_t> op_digest_;  ///< per-pid in-flight read digest
  TurnQueueMutations mut_;
};

}  // namespace tbwf::zoo
