// Real-threads batched fast-path/slow-path throughput engine.
//
// The rt twin of src/qa/qa_batched.hpp: announce / combine / help in
// front of RtQaUniversal<BatchSeq<S>>. See that header for the protocol
// and its exactly-once / fate-sealing arguments -- they carry over
// verbatim. The slot protocol underneath is not a port: RtQaUniversal
// runs qa::QaUniversal itself over try-lock registers. This engine's
// own announce / combine / help layer is still a hand port. What is
// rt-specific here:
//
//   * announce cells are RtAbortableReg<Announce>: a combiner's drain
//     read holds the try-lock only for a copy, so the single-writer
//     announce write spins at most briefly; a drain read that aborts
//     skips that announcer for one round (it is helped next round);
//   * waiters do NOT read the n Paxos records per poll (those try-lock
//     reads would duel with the combiner's protocol reads). Instead
//     every decided batch is demultiplexed through an immutable
//     FrontierNode published on one atomic pointer: a waiter's poll is
//     a single hazard-protected load plus three vector lookups;
//   * displaced frontier nodes are reclaimed through HazardDomain
//     (rt_reclaim.hpp): bounded per-thread retire rings, no locks, no
//     unbounded garbage -- live nodes never exceed the
//     live_node_bound() of nthreads * ring_capacity + 2 * nthreads + 1
//     (rings at capacity, one unpublished allocation plus one
//     displaced-awaiting-retire node per thread, the published
//     frontier);
//   * a combiner gate (advisory try-flag) damps slot duels: waiters
//     whose patience expires while another combiner is mid-flight spin
//     briefly before combining anyway. The gate is bounded-bypass, so
//     it can cost at most a constant delay, never progress;
//   * producer LANES are decoupled from combiner identities: the
//     engine has `Options::lanes` announce cells (default nthreads)
//     but only nthreads slot-protocol participants. A thread that owns
//     several lanes pipelines one staged op per lane through
//     announce()/collect(); a single combine round drains every staged
//     lane, so per-op slot cost is amortized across the whole staged
//     set -- the throughput case the paper's batching argument is
//     about (many producers, few combiners).
//
// Memory-order discipline (docs/MODEL.md): every atomic op names its
// order. frontier_ CAS publishes with seq_cst (pairs with the hazard
// validation, see rt_reclaim.hpp); its plain loads are acquire (node
// fields were written before the CAS); the combiner gate is
// acquire/release (advisory mutual-exclusion hint); statistics are
// relaxed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "qa/qa_batched.hpp"
#include "qa/qa_object.hpp"
#include "qa/sequential_type.hpp"
#include "rt/rt_qa.hpp"
#include "rt/rt_reclaim.hpp"
#include "rt/rt_registers.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"

namespace tbwf::rt {

template <qa::Sequential S>
class RtQaBatched {
 public:
  using State = typename S::State;
  using Op = typename S::Op;
  using Result = typename S::Result;
  using Response = qa::QaResponse<Result>;
  using Tid = std::uint32_t;
  using BS = qa::BatchSeq<S>;
  using Inner = RtQaUniversal<BS>;
  using InnerStateRec = typename Inner::StateRec;
  using InnerStatePtr = typename Inner::StatePtr;

  struct Options {
    /// Frontier polls a waiter grants the combiners before running the
    /// slot protocol itself (helping trigger B).
    int patience = 64;
    /// Polls between cooperative yields while waiting (oversubscribed
    /// cores need the combiner scheduled in).
    int yield_every = 8;
    /// Inner slot attempts in invoke()'s bounded slow path.
    int combine_attempts = 4;
    /// Bounded announce-write retries in invoke() (apply() retries
    /// until the single-writer cell lands).
    int announce_tries = 256;
    /// Spin budget while the advisory combiner gate is taken before
    /// combining anyway (bounded bypass).
    int gate_spins = 64;
    /// Retire-ring capacity per thread (0 = 2 * nthreads + 8).
    std::size_t ring_capacity = 0;
    /// Announce lanes (0 = nthreads). Lanes are producer identities:
    /// each OS thread may own several and pipeline one staged op per
    /// lane through announce()/collect(), all drained by a single
    /// combine round. Only the nthreads combiner identities run the
    /// slot protocol; state width (done_uid et al.) is per lane.
    int lanes = 0;
  };

  /// Patience at or above this disables opportunistic (gate-idle)
  /// combining: the thread combines only when its patience expires.
  /// Starvation tests use it to model a pure waiter that must be
  /// carried entirely by others' helping.
  static constexpr int kNeverCombine = 1 << 24;

  struct Announce {
    std::uint64_t uid = 0;
    bool has_op = false;
    Op op{};
  };

  /// Immutable per-slot demux snapshot; published whole, never mutated.
  struct FrontierNode {
    std::uint64_t seq = 0;
    std::vector<std::uint64_t> done_uid;
    std::vector<std::uint8_t> done_void;
    std::vector<Result> done_result;
  };

  explicit RtQaBatched(int nthreads, State initial = State{},
                       Options options = {})
      : n_(nthreads),
        lanes_(options.lanes > 0 ? options.lanes : nthreads),
        options_(options),
        inner_(nthreads, make_genesis(lanes_, std::move(initial))),
        domain_(nthreads, options.ring_capacity),
        locals_(nthreads),
        lane_slots_(lanes_) {
    TBWF_ASSERT(nthreads >= 1, "need at least one thread");
    for (int t = 0; t < n_; ++t) {
      locals_[t].cache = inner_.local_decided(static_cast<Tid>(t));
    }
    TBWF_ASSERT(lanes_ >= nthreads,
                "each thread needs at least its default lane (lane == tid)");
    ann_.reserve(lanes_);
    for (int l = 0; l < lanes_; ++l) {
      ann_.emplace_back(std::make_unique<RtAbortableReg<Announce>>(Announce{}));
    }
    auto* genesis_node = new FrontierNode;
    genesis_node->done_uid.assign(lanes_, 0);
    genesis_node->done_void.assign(lanes_, 0);
    genesis_node->done_result.assign(lanes_, Result{});
    nodes_allocated_.store(1, std::memory_order_relaxed);
    frontier_.store(genesis_node, std::memory_order_release);
  }

  ~RtQaBatched() {
    // Quiescent by contract (all caller threads joined).
    delete frontier_.load(std::memory_order_relaxed);
  }

  RtQaBatched(const RtQaBatched&) = delete;
  RtQaBatched& operator=(const RtQaBatched&) = delete;

  /// Saturating surface: announce once, wait (helped) or combine until
  /// the op is applied. Exactly-once by uid dedup; never bottom.
  Result apply(Tid tid, Op op) {
    announce(tid, static_cast<int>(tid), std::move(op));
    return collect(tid, static_cast<int>(tid));
  }

  /// Pipelined surface, stage 1: stage `op` on `lane` (owned by tid's
  /// thread) without waiting. At most one staged op per lane; the lane
  /// must be collect()ed before it is reused. A thread that owns k
  /// lanes announces k ops and then collects them -- one combine round
  /// drains all k (plus every other thread's staged lanes).
  void announce(Tid tid, int lane, Op op) {
    LaneSlot& slot = lane_slots_[lane];
    const std::uint64_t uid = next_uid(slot, lane);
    locals_[tid].ops_started += 1;
    slot.ann = Announce{uid, true, std::move(op)};
    while (!ann_[lane]->write(slot.ann)) {
      // Single-writer cell: only a combiner's drain copy can hold it.
      std::this_thread::yield();
    }
  }

  /// Pipelined surface, stage 2: wait (helped) or combine until the
  /// lane's staged op is applied; returns its result. Never bottom.
  Result collect(Tid tid, int lane) {
    Local& me = locals_[tid];
    const std::uint64_t uid = lane_slots_[lane].last_uid;
    int polls = 0;
    bool combined = false;
    for (;;) {
      // Local demux cache first: the decided state this thread's own
      // combines last observed. Own-thread data, no atomics; a stale
      // cache only falls through to the shared frontier below.
      if (me.cache->state.done_uid[lane] == uid) {
        TBWF_ASSERT(me.cache->state.done_void[lane] == 0,
                    "collect() op voided without a query tombstone");
        if (!combined) me.fast_completions += 1;
        return me.cache->state.done_result[lane];
      }
      const FrontierNode* f = domain_.protect(tid, frontier_);
      const bool done = f->done_uid[lane] == uid;
      Result result{};
      if (done) {
        TBWF_ASSERT(f->done_void[lane] == 0,
                    "collect() op voided without a query tombstone");
        result = f->done_result[lane];
      }
      domain_.unprotect(tid);
      if (done) {
        if (!combined) me.fast_completions += 1;
        return result;
      }
      // Gate-aware waiting: while another combiner is mid-flight it
      // will drain our announce, so polling is the cheap move; the
      // moment the gate is free (or patience runs out -- the helping
      // bound) we run the slot protocol ourselves.
      const bool idle =
          combiner_gate_.load(std::memory_order_relaxed) == 0;
      if ((idle && patience_of(me) < kNeverCombine) ||
          ++polls > patience_of(me)) {
        polls = 0;
        combined = true;
        (void)combine_once(tid, /*tombstone_uid=*/0, /*self_lane=*/lane);
      } else if (polls % options_.yield_every == 0) {
        std::this_thread::yield();
      }
    }
  }

  /// T_QA surface: bounded; may return bottom under contention. Runs
  /// on tid's default lane (lane == tid).
  Response invoke(Tid tid, Op op) {
    Local& me = locals_[tid];
    LaneSlot& slot = lane_slots_[tid];
    const std::uint64_t uid = next_uid(slot, static_cast<int>(tid));
    me.ops_started += 1;
    slot.ann = Announce{uid, true, std::move(op)};
    bool landed = false;
    for (int t = 0; t < options_.announce_tries; ++t) {
      if (ann_[tid]->write(slot.ann)) {
        landed = true;
        break;
      }
    }
    if (!landed) return Response::make_bottom();  // query seals the fate
    for (int poll = 0; poll < patience_of(me); ++poll) {
      const FrontierNode* f = domain_.protect(tid, frontier_);
      const auto r = resolve_node(f, tid, uid);
      domain_.unprotect(tid);
      if (r.has_value()) {
        me.fast_completions += 1;
        return *r;
      }
      if (poll % options_.yield_every == options_.yield_every - 1) {
        std::this_thread::yield();
      }
    }
    for (int attempt = 0; attempt < options_.combine_attempts; ++attempt) {
      (void)combine_once(tid, /*tombstone_uid=*/0,
                         /*self_lane=*/static_cast<int>(tid));
      if (const auto fr = inner_.read_frontier(tid)) {
        if (auto r = resolve(*fr, tid, uid)) return *r;
      }
    }
    return Response::make_bottom();
  }

  /// Fate of tid's last invoke (Ok / F / bottom); F is final. Seals an
  /// open fate by committing a tombstone batch (see qa_batched.hpp).
  Response query(Tid tid) {
    const std::uint64_t uid = lane_slots_[tid].last_uid;
    if (uid == 0) return Response::make_not_applied();
    auto fr = inner_.read_frontier(tid);
    if (fr != nullptr) {
      if (auto r = resolve(*fr, tid, uid)) return *r;
    }
    const bool sealed = combine_once(tid, uid);
    fr = inner_.read_frontier(tid);
    if (sealed && fr != nullptr) {
      if (auto r = resolve(*fr, tid, uid)) return *r;
    }
    return Response::make_bottom();
  }

  // -- introspection ---------------------------------------------------------
  int n() const { return n_; }
  int lanes() const { return lanes_; }
  Inner& inner() { return inner_; }

  /// Authoritative decided state (reads the Paxos records, briefly
  /// retrying aborted cells); for exactness checks after quiescence.
  InnerStateRec state_snapshot() { return inner_.frontier_snapshot(); }

  /// Quiescent-only: dereferences the frontier without a hazard slot,
  /// so it is safe only while no thread can publish (before the worker
  /// threads start or after they are joined). Concurrent readers must
  /// go through collect()/invoke(), which pin the node first.
  std::uint64_t frontier_seq() const {
    return frontier_.load(std::memory_order_acquire)->seq;
  }
  /// Per-thread stats; read from the owning thread or after joining it.
  std::uint64_t ops_started(Tid tid) const { return locals_[tid].ops_started; }
  std::uint64_t combines(Tid tid) const { return locals_[tid].combines; }
  std::uint64_t fast_completions(Tid tid) const {
    return locals_[tid].fast_completions;
  }
  /// Reclamation accounting for the soak bound: nodes currently alive
  /// (allocated - freed) and the per-thread retire-ring high-water.
  std::int64_t live_nodes() const {
    return static_cast<std::int64_t>(
               nodes_allocated_.load(std::memory_order_relaxed)) -
           static_cast<std::int64_t>(domain_.freed());
  }
  std::size_t ring_high_water(Tid tid) const {
    return domain_.high_water(static_cast<int>(tid));
  }
  std::size_t ring_capacity() const { return domain_.capacity(); }
  /// Per-thread patience override (helping/starvation experiments);
  /// call before the thread starts issuing ops.
  void set_patience(Tid tid, int patience) { locals_[tid].patience = patience; }
  /// Hard bound live_nodes() can never exceed: every ring full, every
  /// hazard slot held, one published frontier, one node in flight per
  /// thread between allocation and publish/delete.
  std::int64_t live_node_bound() const {
    return static_cast<std::int64_t>(n_ * domain_.capacity() + 2 * n_ + 1);
  }

 private:
  /// Per-combiner (per OS thread) protocol state.
  struct alignas(util::kCacheLineSize) Local {
    int patience = -1;  ///< < 0 = use Options::patience
    std::uint64_t ops_started = 0;
    std::uint64_t combines = 0;
    std::uint64_t fast_completions = 0;
    /// Decided state as of this thread's last combine: collect()'s
    /// demux fast path, shared with the inner construction (never a
    /// copy). Own-thread read/write only; genesis until the first
    /// combine.
    InnerStatePtr cache;
  };

  /// Per-lane producer state; a lane is driven by one thread at a time.
  struct alignas(util::kCacheLineSize) LaneSlot {
    Announce ann;
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

  int patience_of(const Local& me) const {
    return me.patience >= 0 ? me.patience : options_.patience;
  }

  std::uint64_t next_uid(LaneSlot& slot, int lane) {
    const std::uint64_t uid =
        ++slot.uid_counter * static_cast<std::uint64_t>(lanes_) +
        static_cast<std::uint64_t>(lane);
    slot.last_uid = uid;
    return uid;
  }

  std::optional<Response> resolve_node(const FrontierNode* f, Tid tid,
                                       std::uint64_t uid) const {
    if (f->done_uid[tid] != uid) return std::nullopt;
    if (f->done_void[tid] != 0) return Response::make_not_applied();
    return Response::make_ok(f->done_result[tid]);
  }

  std::optional<Response> resolve(const InnerStateRec& fr, Tid tid,
                                  std::uint64_t uid) const {
    if (fr.state.done_uid[tid] != uid) return std::nullopt;
    if (fr.state.done_void[tid] != 0) return Response::make_not_applied();
    return Response::make_ok(fr.state.done_result[tid]);
  }

  /// Drain + commit one batch; publish the new frontier node. The
  /// caller's own pending item is always part of the drained batch: a
  /// tombstone_uid != 0 is pushed directly, and self_lane's staged op
  /// is self-included from the lane_slots_ local mirror (the caller is
  /// that lane's single writer), never from the duel-prone abortable
  /// cell. Returns true iff a batch containing the caller's item
  /// decided, or the caller had nothing pending.
  bool combine_once(Tid tid, std::uint64_t tombstone_uid,
                    int self_lane = -1) {
    // Advisory duel damper: one combiner at a time preferred, bounded
    // bypass so a stalled holder can only delay, never block.
    std::uint32_t expected = 0;
    bool gated = combiner_gate_.compare_exchange_strong(
        expected, 1, std::memory_order_acquire, std::memory_order_relaxed);
    if (!gated) {
      for (int i = 0; i < options_.gate_spins && !gated; ++i) {
        std::this_thread::yield();
        expected = 0;
        gated = combiner_gate_.compare_exchange_strong(
            expected, 1, std::memory_order_acquire,
            std::memory_order_relaxed);
      }
    }
    const bool ok = run_combine(tid, tombstone_uid, self_lane);
    if (gated) combiner_gate_.store(0, std::memory_order_release);
    return ok;
  }

  bool run_combine(Tid tid, std::uint64_t tombstone_uid, int self_lane) {
    Local& me = locals_[tid];
    const InnerStatePtr fr = inner_.read_frontier(tid);
    if (fr == nullptr) return false;
    const auto& done = fr->state.done_uid;

    typename BS::Op batch;
    batch.reserve(static_cast<std::size_t>(lanes_) + 1);
    if (tombstone_uid != 0 && tombstone_uid > done[tid]) {
      qa::BatchItem<S> item;
      item.owner = static_cast<sim::Pid>(tid);
      item.uid = tombstone_uid;
      item.tombstone = true;
      batch.push_back(std::move(item));
    }
    for (int lane = 0; lane < lanes_; ++lane) {
      if (lane == self_lane) {
        // Self-include from the local mirror (the sim engine's
        // ann_mine_ move): we are this lane's single writer, so the
        // mirror is exact, and reading our own abortable cell could
        // abort against a concurrent drain copy and silently drop our
        // own op from our own batch.
        const Announce& mine = lane_slots_[lane].ann;
        if (mine.has_op && mine.uid > done[lane]) {
          batch.push_back(qa::BatchItem<S>{lane, mine.uid, mine.op});
        }
        continue;
      }
      auto a = ann_[lane]->read();
      if (!a.has_value()) continue;  // busy cell: helped next round
      if (a->has_op && a->uid > done[lane]) {
        batch.push_back(qa::BatchItem<S>{lane, a->uid, a->op});
      }
    }
    if (batch.empty()) {
      publish_frontier(tid, *fr);  // catch-up: demux what is decided
      if (fr->seq > me.cache->seq) me.cache = fr;
      return true;
    }
    me.combines += 1;
    const auto resp = inner_.invoke(tid, std::move(batch));
    const InnerStatePtr& decided = inner_.local_decided(tid);
    publish_frontier(tid, *decided);
    if (decided->seq > me.cache->seq) me.cache = decided;
    return resp.ok();
  }

  /// Publishes `rec` as a new frontier node unless a newer one is
  /// already up. Pins `cur` with the caller's hazard slot (free at
  /// every call site -- run_combine holds no hazard) across the seq
  /// read and the CAS: the combiner gate is advisory with bounded
  /// bypass, so a concurrent publisher can swing the frontier, retire
  /// the old node, and free it via a scan between an unprotected load
  /// and its dereference -- and a recycled allocation at the same
  /// address could then win the CAS with an older seq (ABA). A
  /// protected node cannot be freed, and every node is published at
  /// most once, so a CAS that succeeds against the pinned `cur` really
  /// did displace it.
  void publish_frontier(Tid tid, const InnerStateRec& rec) {
    const FrontierNode* cur = domain_.protect(tid, frontier_);
    if (rec.seq <= cur->seq) {
      domain_.unprotect(tid);
      return;
    }
    auto* node = new FrontierNode;
    node->seq = rec.seq;
    node->done_uid = rec.state.done_uid;
    node->done_void = rec.state.done_void;
    node->done_result = rec.state.done_result;
    nodes_allocated_.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
      const FrontierNode* expected = cur;
      // seq_cst success pairs with the hazard validation (rt_reclaim).
      if (frontier_.compare_exchange_strong(expected, node,
                                            std::memory_order_seq_cst,
                                            std::memory_order_acquire)) {
        domain_.unprotect(tid);
        domain_.retire(static_cast<int>(tid), cur);
        return;
      }
      // Lost the race: re-pin whatever is current and re-check recency.
      cur = domain_.protect(tid, frontier_);
      if (rec.seq <= cur->seq) {
        domain_.unprotect(tid);
        // Lost to a newer publish; the node was never visible.
        delete node;
        nodes_allocated_.fetch_sub(1, std::memory_order_relaxed);
        return;
      }
    }
  }

  int n_;
  int lanes_;
  Options options_;
  Inner inner_;
  HazardDomain<FrontierNode> domain_;
  std::vector<std::unique_ptr<RtAbortableReg<Announce>>> ann_;
  std::vector<Local> locals_;
  std::vector<LaneSlot> lane_slots_;
  std::atomic<const FrontierNode*> frontier_{nullptr};
  std::atomic<std::uint32_t> combiner_gate_{0};
  std::atomic<std::uint64_t> nodes_allocated_{0};
};

}  // namespace tbwf::rt
