// Real-thread specialists of the zoo objects, on genuinely abortable
// try-lock registers (RtAbortableReg) -- the rt twins of snapshot.hpp,
// turn_queue.hpp and ledger.hpp. The universal rt objects are
// RtQaUniversal<S> (the explorer-checked qa::QaUniversal itself, run on
// threads) and RtQaBatched<S> over the same zoo_types.hpp specs.
//
// The specialists here are hand ports of the sim protocols; the
// difference is the base register: every read may return nullopt and every write may return
// false (cell busy, injected fault). The T_QA translation is uniform:
//  - an aborted READ aborts the surrounding operation with bottom; no
//    shared state was touched, so the fate is F (NotApplied) and query
//    resolves it immediately.
//  - an aborted WRITE of the caller's own record retries boundedly;
//    an operation whose tentative item / pending claim could not be
//    settled before return parks the obligation and query finishes the
//    settlement (self-help on abort) -- bottom persists only until a
//    settlement write lands.
// Solo, try-lock cells never abort (no contending holder), so solo
// operations never answer bottom -- the graded-guarantee base case.
//
// Everything here is single-writer: thread t writes only slot t, so
// the per-thread Local blocks need no atomics (owner-thread access
// only) and the shared cells carry all cross-thread communication.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "qa/qa_object.hpp"
#include "rt/rt_registers.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"
#include "zoo/zoo_types.hpp"

namespace tbwf::zoo {

/// Bounded settlement retries for own-record writes: the cell is only
/// ever held for the duration of one copy, so a handful of tries
/// almost always lands; what does not land is parked for query.
inline constexpr int kRtSettleTries = 64;

// -- snapshot -------------------------------------------------------------

class RtZooSnapshot {
 public:
  using S = SnapshotType;
  using Result = S::Result;
  using Response = qa::QaResponse<Result>;
  using Tid = std::uint32_t;

  RtZooSnapshot(int nthreads, S::State initial) : n_(nthreads) {
    TBWF_ASSERT(static_cast<int>(initial.size()) == n_,
                "RtZooSnapshot: one segment per thread");
    segs_.reserve(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      Seg seg;
      seg.value = initial[static_cast<std::size_t>(i)];
      segs_.emplace_back(std::make_unique<rt::RtAbortableReg<Seg>>(seg));
    }
    locals_ = std::vector<util::CachelinePadded<Local>>(
        static_cast<std::size_t>(n_));
  }

  Response invoke(Tid tid, S::Op op) {
    Local& local = locals_[tid].value;
    local.started = true;
    if (op.is_update) {
      TBWF_ASSERT(static_cast<Tid>(op.index) == tid,
                  "RtZooSnapshot: a thread updates its own segment");
      Result view;
      if (!scan(view)) {
        local.applied = false;
        return Response::make_bottom();
      }
      std::optional<Seg> mine = segs_[tid]->read();
      if (!mine) {
        local.applied = false;
        return Response::make_bottom();
      }
      Seg seg;
      seg.value = op.value;
      seg.seq = mine->seq + 1;
      seg.view = std::move(view);
      if (!write_settled(*segs_[tid], seg)) {
        local.applied = false;
        return Response::make_bottom();
      }
      local.applied = true;
      local.result = Result{};
      return Response::make_ok(Result{});
    }
    Result view;
    if (!scan(view)) {
      local.applied = false;
      return Response::make_bottom();
    }
    local.applied = true;
    local.result = view;
    return Response::make_ok(view);
  }

  /// Aborted ops touched nothing shared, so the fate is locally known.
  Response query(Tid tid) {
    const Local& local = locals_[tid].value;
    if (!local.started) return Response::make_not_applied();
    return local.applied ? Response::make_ok(local.result)
                         : Response::make_not_applied();
  }

  int n() const { return n_; }

 private:
  struct Seg {
    std::int64_t value = 0;
    std::uint64_t seq = 0;
    std::vector<std::int64_t> view;
  };
  struct Local {
    bool started = false;
    bool applied = false;
    Result result;
  };

  bool collect(std::vector<Seg>& out) {
    out.clear();
    out.reserve(static_cast<std::size_t>(n_));
    for (int q = 0; q < n_; ++q) {
      std::optional<Seg> seg = segs_[static_cast<std::size_t>(q)]->read();
      if (!seg) return false;
      out.push_back(std::move(*seg));
    }
    return true;
  }

  bool scan(Result& view) {
    std::vector<int> moved(static_cast<std::size_t>(n_), 0);
    std::vector<Seg> prev;
    if (!collect(prev)) return false;
    // Bounded by pigeonhole exactly as in the sim specialist: after
    // n + 1 dirty double-collects some writer moved twice.
    for (int attempt = 0; attempt <= n_ + 1; ++attempt) {
      std::vector<Seg> cur;
      if (!collect(cur)) return false;
      bool clean = true;
      for (int q = 0; q < n_; ++q) {
        const std::size_t i = static_cast<std::size_t>(q);
        if (cur[i].seq != prev[i].seq) {
          clean = false;
          if (++moved[i] >= 2) {
            view = cur[i].view;
            return true;
          }
        }
      }
      if (clean) {
        view.clear();
        for (const Seg& seg : cur) view.push_back(seg.value);
        return true;
      }
      prev = std::move(cur);
    }
    return false;  // unreachable; kept as a hard bound
  }

  static bool write_settled(rt::RtAbortableReg<Seg>& reg, const Seg& seg) {
    for (int k = 0; k < kRtSettleTries; ++k) {
      if (reg.write(seg)) return true;
    }
    return false;
  }

  int n_;
  std::vector<std::unique_ptr<rt::RtAbortableReg<Seg>>> segs_;
  std::vector<util::CachelinePadded<Local>> locals_;
};

// -- ledger ---------------------------------------------------------------

class RtZooLedger {
 public:
  using S = LedgerType;
  using Result = S::Result;
  using Response = qa::QaResponse<Result>;
  using Tid = std::uint32_t;

  RtZooLedger(int nthreads, S::State initial) : n_(nthreads) {
    Log genesis;
    for (std::size_t i = 0; i + 1 < initial.size(); i += 2) {
      genesis.entries.push_back(Entry{initial[i], initial[i + 1], 0});
    }
    logs_.reserve(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      logs_.emplace_back(
          std::make_unique<rt::RtAbortableReg<Log>>(i == 0 ? genesis : Log{}));
    }
    locals_ = std::vector<util::CachelinePadded<Local>>(
        static_cast<std::size_t>(n_));
  }

  Response invoke(Tid tid, S::Op op) {
    Local& local = locals_[tid].value;
    local.started = true;
    local.applied = false;
    if (op.is_put) {
      std::uint64_t max_ts = 0;
      for (int q = 0; q < n_; ++q) {
        std::optional<Log> log = logs_[static_cast<std::size_t>(q)]->read();
        if (!log) return Response::make_bottom();
        for (const Entry& e : log->entries) {
          if (e.ts > max_ts) max_ts = e.ts;
        }
      }
      std::optional<Log> mine = logs_[tid]->read();
      if (!mine) return Response::make_bottom();
      mine->entries.push_back(Entry{op.key, op.value, max_ts + 1});
      bool landed = false;
      for (int k = 0; k < kRtSettleTries && !landed; ++k) {
        landed = logs_[tid]->write(*mine);
      }
      if (!landed) return Response::make_bottom();
      local.applied = true;
      local.result = op.value;
      return Response::make_ok(op.value);
    }
    std::int64_t value = S::kAbsent;
    std::uint64_t best_ts = 0;
    int best_tid = -1;
    for (int q = 0; q < n_; ++q) {
      std::optional<Log> log = logs_[static_cast<std::size_t>(q)]->read();
      if (!log) return Response::make_bottom();
      for (const Entry& e : log->entries) {
        if (e.key != op.key) continue;
        if (value == S::kAbsent || e.ts > best_ts ||
            (e.ts == best_ts && q > best_tid)) {
          value = e.value;
          best_ts = e.ts;
          best_tid = q;
        }
      }
    }
    local.applied = true;
    local.result = value;
    return Response::make_ok(value);
  }

  Response query(Tid tid) {
    const Local& local = locals_[tid].value;
    if (!local.started) return Response::make_not_applied();
    return local.applied ? Response::make_ok(local.result)
                         : Response::make_not_applied();
  }

  int n() const { return n_; }

 private:
  struct Entry {
    std::int64_t key = 0;
    std::int64_t value = 0;
    std::uint64_t ts = 0;
  };
  struct Log {
    std::vector<Entry> entries;
  };
  struct Local {
    bool started = false;
    bool applied = false;
    Result result = 0;
  };

  int n_;
  std::vector<std::unique_ptr<rt::RtAbortableReg<Log>>> logs_;
  std::vector<util::CachelinePadded<Local>> locals_;
};

// -- bounded MPMC queue ---------------------------------------------------

template <int Cap>
class RtZooQueue {
 public:
  using S = BoundedQueueOf<Cap>;
  using Result = typename S::Result;
  using Response = qa::QaResponse<Result>;
  using Tid = std::uint32_t;

  explicit RtZooQueue(int nthreads) : n_(nthreads) {
    recs_.reserve(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      recs_.emplace_back(std::make_unique<rt::RtAbortableReg<Rec>>(Rec{}));
    }
    locals_ = std::vector<util::CachelinePadded<Local>>(
        static_cast<std::size_t>(n_));
  }

  Response invoke(Tid tid, typename S::Op op) {
    Local& local = locals_[tid].value;
    local.started = true;
    local.pending = Pending::kNone;
    return op.is_enqueue ? enqueue(tid, op.value) : dequeue(tid);
  }

  /// Finishes parked settlements (self-help): a tentative item or
  /// pending claim left by an aborted settlement write is retried
  /// here; until it lands the fate stays bottom.
  Response query(Tid tid) {
    Local& local = locals_[tid].value;
    if (!local.started) return Response::make_not_applied();
    switch (local.pending) {
      case Pending::kNone:
        break;
      case Pending::kRetractItem:
        if (!set_last_item_state(tid, kRetracted)) {
          return Response::make_bottom();
        }
        local.pending = Pending::kNone;
        local.applied = false;
        break;
      case Pending::kDropClaim:
        if (!set_last_claim_state(tid, kDropped)) {
          return Response::make_bottom();
        }
        local.pending = Pending::kNone;
        local.applied = false;
        break;
    }
    return local.applied ? Response::make_ok(local.result)
                         : Response::make_not_applied();
  }

  int n() const { return n_; }

 private:
  enum ItemState : std::uint8_t { kTentative = 0, kCommitted, kRetracted };
  enum ClaimState : std::uint8_t { kPending = 0, kConfirmed, kDropped };
  enum class Pending : std::uint8_t { kNone, kRetractItem, kDropClaim };

  struct Item {
    std::int64_t value = 0;
    std::uint64_t ts = 0;
    std::uint8_t state = kTentative;
  };
  struct Claim {
    std::uint32_t owner = 0;
    std::uint32_t index = 0;
    std::uint8_t state = kPending;
  };
  struct Rec {
    std::vector<Item> items;
    std::vector<Claim> claims;
  };
  using View = std::vector<Rec>;

  struct ItemRef {
    std::uint32_t owner = 0;
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

  struct Local {
    bool started = false;
    bool applied = false;
    Result result = 0;
    Pending pending = Pending::kNone;
  };

  bool collect(View& view) {
    view.clear();
    view.reserve(static_cast<std::size_t>(n_));
    for (int q = 0; q < n_; ++q) {
      std::optional<Rec> rec = recs_[static_cast<std::size_t>(q)]->read();
      if (!rec) return false;
      view.push_back(std::move(*rec));
    }
    return true;
  }

  static bool consumed_in(const View& view, std::uint32_t owner,
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

  static std::vector<ItemRef> unconsumed(const View& view) {
    std::vector<ItemRef> out;
    for (std::uint32_t q = 0; q < view.size(); ++q) {
      const Rec& rec = view[q];
      for (std::uint32_t k = 0; k < rec.items.size(); ++k) {
        if (rec.items[k].state != kCommitted) continue;
        if (consumed_in(view, q, k)) continue;
        out.push_back(ItemRef{q, k, rec.items[k].ts, rec.items[k].value});
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  static bool foreign_pending_claim(const View& view, Tid self) {
    for (std::uint32_t q = 0; q < view.size(); ++q) {
      if (q == self) continue;
      for (const Claim& c : view[q].claims) {
        if (c.state == kPending) return true;
      }
    }
    return false;
  }

  static bool foreign_tentative_item(const View& view, Tid self) {
    for (std::uint32_t q = 0; q < view.size(); ++q) {
      if (q == self) continue;
      for (const Item& item : view[q].items) {
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

  static std::uint64_t view_digest(const View& view, Tid self) {
    std::uint64_t h = 1469598103934665603ull;  // FNV offset
    const auto mix = [&h](std::uint64_t v) {
      h = (h ^ v) * 1099511628211ull;
    };
    for (std::uint32_t q = 0; q < view.size(); ++q) {
      if (q == self) continue;
      mix(view[q].items.size());
      for (const Item& item : view[q].items) mix(item.state);
      mix(view[q].claims.size());
      for (const Claim& c : view[q].claims) mix(c.state);
    }
    return h;
  }

  bool append_item(Tid tid, Item item) {
    std::optional<Rec> mine = recs_[tid]->read();
    if (!mine) return false;
    mine->items.push_back(item);
    for (int k = 0; k < kRtSettleTries; ++k) {
      if (recs_[tid]->write(*mine)) return true;
    }
    return false;
  }

  bool append_claim(Tid tid, Claim claim) {
    std::optional<Rec> mine = recs_[tid]->read();
    if (!mine) return false;
    mine->claims.push_back(claim);
    for (int k = 0; k < kRtSettleTries; ++k) {
      if (recs_[tid]->write(*mine)) return true;
    }
    return false;
  }

  bool set_last_item_state(Tid tid, std::uint8_t state) {
    for (int k = 0; k < kRtSettleTries; ++k) {
      std::optional<Rec> mine = recs_[tid]->read();
      if (!mine) continue;
      mine->items.back().state = state;
      if (recs_[tid]->write(*mine)) return true;
    }
    return false;
  }

  bool set_last_claim_state(Tid tid, std::uint8_t state) {
    for (int k = 0; k < kRtSettleTries; ++k) {
      std::optional<Rec> mine = recs_[tid]->read();
      if (!mine) continue;
      mine->claims.back().state = state;
      if (recs_[tid]->write(*mine)) return true;
    }
    return false;
  }

  Response enqueue(Tid tid, std::int64_t v) {
    Local& local = locals_[tid].value;
    local.applied = false;
    View c1;
    if (!collect(c1)) return Response::make_bottom();
    const std::uint64_t ts = max_ts(c1) + 1;
    const int size1 = static_cast<int>(unconsumed(c1).size());
    if (size1 + n_ <= Cap) {
      if (!append_item(tid, Item{v, ts, kCommitted})) {
        return Response::make_bottom();  // nothing landed: fate F
      }
      local.applied = true;
      local.result = v;
      return Response::make_ok(v);
    }
    if (!append_item(tid, Item{v, ts, kTentative})) {
      return Response::make_bottom();  // nothing landed: fate F
    }
    View c2;
    if (!collect(c2)) return park_item(local);
    const int size2 = static_cast<int>(unconsumed(c2).size());
    const bool stable = view_digest(c1, tid) == view_digest(c2, tid);
    if (size2 >= Cap && stable) {
      if (!set_last_item_state(tid, kRetracted)) return park_item(local);
      local.applied = true;
      local.result = S::kFull;
      return Response::make_ok(S::kFull);
    }
    const bool quiet = stable && !foreign_tentative_item(c2, tid) &&
                       !foreign_pending_claim(c2, tid);
    if (size2 < Cap && (size2 + n_ <= Cap || quiet)) {
      if (!set_last_item_state(tid, kCommitted)) return park_item(local);
      local.applied = true;
      local.result = v;
      return Response::make_ok(v);
    }
    if (!set_last_item_state(tid, kRetracted)) return park_item(local);
    return Response::make_bottom();
  }

  Response dequeue(Tid tid) {
    Local& local = locals_[tid].value;
    local.applied = false;
    View c1;
    if (!collect(c1)) return Response::make_bottom();
    if (foreign_pending_claim(c1, tid)) return Response::make_bottom();
    std::vector<ItemRef> items = unconsumed(c1);
    if (items.empty()) {
      View c2;
      if (!collect(c2)) return Response::make_bottom();
      if (view_digest(c1, tid) == view_digest(c2, tid)) {
        local.applied = true;
        local.result = S::kEmpty;
        return Response::make_ok(S::kEmpty);
      }
      return Response::make_bottom();
    }
    const ItemRef head = items.front();
    if (!append_claim(tid, Claim{head.owner, head.index, kPending})) {
      return Response::make_bottom();  // nothing landed: fate F
    }
    View c2;
    if (!collect(c2)) return park_claim(local);
    std::vector<ItemRef> items2 = unconsumed(c2);
    const bool head_gone = items2.empty() || !items2.front().same(head);
    if (foreign_pending_claim(c2, tid) || head_gone) {
      if (!set_last_claim_state(tid, kDropped)) return park_claim(local);
      return Response::make_bottom();
    }
    if (!set_last_claim_state(tid, kConfirmed)) return park_claim(local);
    local.applied = true;
    local.result = head.value;
    return Response::make_ok(head.value);
  }

  /// A settlement write aborted: park the obligation for query.
  Response park_item(Local& local) {
    local.pending = Pending::kRetractItem;
    return Response::make_bottom();
  }
  Response park_claim(Local& local) {
    local.pending = Pending::kDropClaim;
    return Response::make_bottom();
  }

  int n_;
  std::vector<std::unique_ptr<rt::RtAbortableReg<Rec>>> recs_;
  std::vector<util::CachelinePadded<Local>> locals_;
};

}  // namespace tbwf::zoo
