// Real-threads port of the query-abortable universal construction.
//
// The same protocol as src/qa/qa_universal.hpp (promise / accept /
// decide per slot over single-writer records, abort on contention,
// adoption of floating accepts), executed by std::threads over try-lock
// abortable registers (RtAbortableReg). A base-register abort -- the
// cell was busy -- simply aborts the attempt, exactly like the
// simulator's AbortableBase. Solo operations never abort (an
// uncontended try-lock always succeeds).
//
// Threading model: thread t owns REG[t] (single writer) and its slice
// of the per-thread protocol state; cross-thread communication goes
// exclusively through the registers. Per-thread slices are padded to
// cache lines to avoid false sharing.
//
// Records carry their two states by pointer. A state is built exactly
// once -- genesis, or a proposer's fresh value: a copy of the frontier
// with the op applied -- and never mutated after its pointer is first
// written to a register. Register reads and writes, read passes,
// frontier selection and adoption therefore copy pointers, not states.
// The publication edge is the cell's release/acquire pair (docs/MODEL.md,
// "The rt memory model"); reference counts are shared_ptr's own atomics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "qa/qa_object.hpp"
#include "qa/sequential_type.hpp"
#include "rt/rt_registers.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"

namespace tbwf::rt {

template <qa::Sequential S>
class RtQaUniversal {
 public:
  using State = typename S::State;
  using Op = typename S::Op;
  using Result = typename S::Result;
  using Response = qa::QaResponse<Result>;
  using Tid = std::uint32_t;

  struct Token {
    std::uint64_t seq = 0;
    std::uint64_t round = 0;
    Tid tid = 0;

    bool gt(const Token& other) const {
      return round > other.round || (round == other.round && tid > other.tid);
    }
  };

  struct StateRec {
    std::uint64_t seq = 0;
    State state{};
    std::vector<std::uint64_t> last_uid;
    std::vector<Result> last_result;
  };
  /// Immutable once published; shared by every record and cache that
  /// holds it.
  using StatePtr = std::shared_ptr<const StateRec>;

  struct Record {
    Token promised;
    Token accepted;
    StatePtr accepted_state;
    StatePtr decided;
  };

  RtQaUniversal(int nthreads, State initial) : n_(nthreads) {
    TBWF_ASSERT(nthreads >= 1, "need at least one thread");
    auto genesis = std::make_shared<StateRec>();
    genesis->state = std::move(initial);
    genesis->last_uid.assign(n_, 0);
    genesis->last_result.assign(n_, Result{});
    const Record init{Token{}, Token{}, genesis, genesis};
    regs_.reserve(n_);
    locals_ = std::vector<Local>(n_);
    for (int t = 0; t < n_; ++t) {
      regs_.emplace_back(std::make_unique<RtAbortableReg<Record>>(init));
      locals_[t].mine = init;
      locals_[t].local_decided = genesis;
      locals_[t].view.resize(n_);
    }
  }

  /// Apply `op`; returns bottom under contention. Called by thread
  /// `tid` only (each tid must be driven by a single thread).
  Response invoke(Tid tid, Op op) {
    Local& me = locals_[tid];
    const std::uint64_t uid = ++me.uid_counter * n_ + tid;
    me.last_real_uid = uid;
    me.pending_uid = 0;
    me.pending_slot = 0;

    Proposal proposal{true, std::move(op), uid};
    for (int attempt = 0; attempt < 2; ++attempt) {
      const AttemptOutcome out = attempt_once(tid, proposal);
      switch (out.kind) {
        case AttemptKind::DecidedSelf:
          return Response::make_ok(out.result);
        case AttemptKind::DecidedOther:
          continue;
        case AttemptKind::AbortNoEffect:
        case AttemptKind::AbortMaybeEffect:
          return Response::make_bottom();
      }
    }
    return Response::make_bottom();
  }

  /// Fate of tid's last invoke (Ok / F / bottom).
  Response query(Tid tid) {
    Local& me = locals_[tid];
    const std::uint64_t uid = me.last_real_uid;
    if (uid == 0) return Response::make_not_applied();

    Proposal noop{false, Op{}, 0};
    (void)attempt_once(tid, noop);

    if (!read_all(tid)) return Response::make_bottom();
    const StateRec& d = *frontier(me.view, tid);
    if (d.last_uid[tid] == uid) {
      return Response::make_ok(d.last_result[tid]);
    }
    if (me.pending_uid != uid) return Response::make_not_applied();
    if (d.seq >= me.pending_slot) return Response::make_not_applied();
    return Response::make_bottom();
  }

  /// One try-lock read pass over all records: the decided frontier as
  /// currently visible to `tid` (null if a base read aborted).
  /// Refreshes tid's local decided cache. Called by tid's thread only.
  StatePtr read_frontier(Tid tid) {
    if (!read_all(tid)) return nullptr;
    return refresh_decided(tid);
  }

  /// The highest decided record tid itself has observed. Called by
  /// tid's thread only (per-thread slice, no synchronization).
  const StatePtr& local_decided(Tid tid) const {
    return locals_[tid].local_decided;
  }

  /// Best-effort snapshot of the decided frontier (retries briefly).
  /// Reads every thread's local cache, so call it only while no thread
  /// is operating (before the workers start or after they are joined).
  StateRec frontier_snapshot() {
    StatePtr best = locals_[0].local_decided;
    for (int t = 0; t < n_; ++t) {
      if (locals_[t].local_decided->seq > best->seq) {
        best = locals_[t].local_decided;
      }
      for (int tries = 0; tries < 64; ++tries) {
        auto r = regs_[t]->read();
        if (r.has_value()) {
          if (r->decided->seq > best->seq) best = std::move(r->decided);
          break;
        }
      }
    }
    return *best;
  }

  int n() const { return n_; }

 private:
  struct Proposal {
    bool has_op = false;
    Op op{};
    std::uint64_t uid = 0;
  };
  enum class AttemptKind {
    DecidedSelf,
    DecidedOther,
    AbortNoEffect,
    AbortMaybeEffect,
  };
  struct AttemptOutcome {
    AttemptKind kind = AttemptKind::AbortNoEffect;
    Result result{};
  };

  struct alignas(util::kCacheLineSize) Local {
    Record mine;
    StatePtr local_decided;
    std::vector<Record> view;  ///< read_all's reused buffer
    std::uint64_t round = 0;
    std::uint64_t uid_counter = 0;
    std::uint64_t last_real_uid = 0;
    std::uint64_t pending_uid = 0;
    std::uint64_t pending_slot = 0;
  };

  /// One read pass into self's view buffer; false iff a base read
  /// aborted (the view is then partial and must not be used).
  bool read_all(Tid self) {
    Local& me = locals_[self];
    for (int t = 0; t < n_; ++t) {
      if (t == static_cast<int>(self)) {
        me.view[t] = me.mine;
        continue;
      }
      auto r = regs_[t]->read();
      if (!r.has_value()) return false;
      me.view[t] = std::move(*r);
    }
    return true;
  }

  const StatePtr& frontier(const std::vector<Record>& recs,
                           Tid self) const {
    const StatePtr* best = &locals_[self].local_decided;
    for (const auto& rec : recs) {
      if (rec.decided->seq > (*best)->seq) best = &rec.decided;
    }
    return *best;
  }

  /// Raises tid's local_decided to the frontier of the view its last
  /// read pass filled, and returns it.
  const StatePtr& refresh_decided(Tid tid) {
    Local& me = locals_[tid];
    const StatePtr& d = frontier(me.view, tid);
    if (d->seq > me.local_decided->seq) me.local_decided = d;
    return me.local_decided;
  }

  bool conflicts(const std::vector<Record>& recs, Tid self,
                 const Token& me) const {
    for (int t = 0; t < n_; ++t) {
      if (t == static_cast<int>(self)) continue;
      const Record& rec = recs[t];
      if (rec.decided->seq >= me.seq) return true;
      if (rec.promised.seq > me.seq) return true;
      if (rec.promised.seq == me.seq && rec.promised.gt(me)) return true;
      if (rec.accepted.seq > me.seq) return true;
      if (rec.accepted.seq == me.seq && rec.accepted.gt(me)) return true;
    }
    return false;
  }

  /// Sink write of a copy of `mine` (pointer copies): the record it
  /// displaces, possibly the last holder of a state, dies after the
  /// cell is released.
  bool publish(Tid tid) {
    return regs_[tid]->write(Record(locals_[tid].mine));
  }

  AttemptOutcome attempt_once(Tid tid, const Proposal& proposal) {
    Local& me = locals_[tid];
    AttemptOutcome out;

    if (!read_all(tid)) return out;  // AbortNoEffect
    // The attempt builds on the frontier, which refresh_decided leaves
    // in local_decided.
    const Token token{refresh_decided(tid)->seq + 1, ++me.round, tid};

    me.mine.promised = token;
    me.mine.decided = me.local_decided;
    if (!publish(tid)) return out;

    if (!read_all(tid) || conflicts(me.view, tid, token)) return out;

    const Record* adopt = nullptr;
    for (int t = 0; t < n_; ++t) {
      if (t == static_cast<int>(tid)) continue;
      const Record& rec = me.view[t];
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
      auto fresh = std::make_shared<StateRec>(*me.local_decided);
      fresh->seq = token.seq;
      if (proposal.has_op) {
        fresh->last_result[tid] = S::apply(fresh->state, proposal.op);
        fresh->last_uid[tid] = proposal.uid;
      }
      value = std::move(fresh);
    }

    me.mine.accepted = token;
    me.mine.accepted_state = value;
    if (proposal.has_op && !adopted) {
      me.pending_uid = proposal.uid;
      me.pending_slot = token.seq;
    }
    if (!publish(tid)) {
      out.kind = AttemptKind::AbortMaybeEffect;
      return out;
    }

    if (!read_all(tid) || conflicts(me.view, tid, token)) {
      out.kind = AttemptKind::AbortMaybeEffect;
      return out;
    }

    me.local_decided = value;
    me.mine.decided = value;
    (void)publish(tid);

    if (adopted) {
      out.kind = AttemptKind::DecidedOther;
    } else {
      out.kind = AttemptKind::DecidedSelf;
      if (proposal.has_op) out.result = value->last_result[tid];
    }
    return out;
  }

  int n_;
  std::vector<std::unique_ptr<RtAbortableReg<Record>>> regs_;
  std::vector<Local> locals_;
};

}  // namespace tbwf::rt
