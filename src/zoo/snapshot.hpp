// Handwritten wait-free atomic snapshot -- the specialist twin of
// QaUniversal<SnapshotType>.
//
// Classic bounded double-collect construction (Afek et al., and the
// canonical presentation in Aspnes's notes): one single-writer atomic
// segment per process holding {value, seq, embedded view}. An update
// first performs a full scan and embeds it next to the new value; a
// scan repeats collects until either two consecutive collects agree
// (a clean double-collect -- the view was atomic at any point between
// them) or some updater is seen to move TWICE, in which case its
// second embedded view was taken entirely inside the scanner's
// interval and can be borrowed. By pigeonhole a scan finishes within
// n + 2 collects, so both operations are wait-free with O(n^2) reads.
//
// The specialist lives on the same T_QA surface as the universal twin
// (invoke/query returning QaResponse) so HistoryRecorder and the zoo
// explorer harness drive either interchangeably. It is written over a
// base-register policy (zoo/specialist.hpp): on atomic registers it
// never answers bottom; on abortable ones an aborted read answers bottom
// with fate F, and an aborted segment write is parked until it lands.
// The scan's collects are loops in invoke itself, so an operation runs
// in one coroutine frame.
//
// Mutation seams (verification bites, see zoo_snapshot_test):
//  - drop_embedded_scan: updates embed a stale (genesis) view; a
//    scanner that borrows returns a view that never existed -> the
//    Wing-Gong oracle flags the history as non-linearizable.
//  - never_borrow: scans refuse to borrow and keep re-collecting; under
//    continuous updates the scanner starves -> the TBWF conformance
//    checker flags a wait-freedom violation for a timely process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qa/qa_object.hpp"
#include "qa/qa_universal.hpp"
#include "registers/abort_policy.hpp"
#include "sim/co.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "zoo/specialist.hpp"
#include "zoo/zoo_types.hpp"

namespace tbwf::zoo {

struct SnapshotMutations {
  /// Updates embed the genesis view instead of a fresh scan.
  bool drop_embedded_scan = false;
  /// Scans never borrow an embedded view (unbounded retry loop).
  bool never_borrow = false;
};

template <class Base = qa::AtomicBase>
class WfSnapshot {
 public:
  using S = SnapshotType;
  using State = S::State;
  using Op = S::Op;
  using Result = S::Result;
  using Response = qa::QaResponse<Result>;
  using Env = typename Base::Env;
  using Home = typename Base::Home;

  WfSnapshot(Home& home, State initial,
             registers::AbortPolicy* policy = nullptr)
      : home_(home), n_(Base::n(home)), slices_(n_) {
    TBWF_ASSERT(static_cast<int>(initial.size()) == n_,
                "WfSnapshot: one segment per process (use "
                "SnapshotType::initial(n))");
    segs_.reserve(n_);
    for (sim::Pid p = 0; p < n_; ++p) {
      Seg seg;
      seg.value = initial[static_cast<std::size_t>(p)];
      segs_.push_back(Base::template make<Seg>(
          home, "zoo.snap.seg." + std::to_string(p), seg, policy, p));
    }
  }

  void set_mutations(SnapshotMutations m) { mut_ = m; }

  /// Specialist updates write the caller's own segment (single-writer
  /// base registers); workloads must use op.index == pid.
  sim::Co<Response> invoke(Env& env, Op op) {
    const sim::Pid p = env.pid();
    Slice& me = slices_[p];
    me.op_digest = util::kFnvOffset;
    if (!co_await land_parked<Base>(env, segs_[p], me)) co_return me.abort();
    if (op.is_update) {
      TBWF_ASSERT(op.index == p,
                  "WfSnapshot specialist: a process updates its own "
                  "segment");
    }
    Result view;
    if (op.is_update && mut_.drop_embedded_scan) {
      view.assign(static_cast<std::size_t>(n_), 0);
    } else {
      // Scan: collect until two consecutive collects agree or some
      // updater is seen to move twice.
      std::vector<int> moved(static_cast<std::size_t>(n_), 0);
      std::vector<Seg> prev(static_cast<std::size_t>(n_));
      std::vector<Seg> cur(static_cast<std::size_t>(n_));
      for (bool first = true;; first = false) {
        for (sim::Pid q = 0; q < n_; ++q) {
          std::optional<Seg> seg = co_await read(env, q);
          if (!seg) co_return me.abort();
          fold_read(me, *seg);
          cur[static_cast<std::size_t>(q)] = std::move(*seg);
        }
        if (!first && scanned(prev, cur, moved, view)) break;
        prev.swap(cur);
      }
    }
    if (!op.is_update) co_return me.finish(Response::make_ok(std::move(view)));

    std::optional<Seg> mine = co_await read(env, p);
    if (!mine) co_return me.abort();
    fold_read(me, *mine);
    Seg seg;
    seg.value = op.value;
    seg.seq = mine->seq + 1;
    seg.view = std::move(view);
    if (!co_await write(env, p, seg)) {
      // Scanners may already see the segment: it must land.
      co_return me.park(std::move(seg), Response::make_ok(Result{}));
    }
    co_return me.finish(Response::make_ok(Result{}));
  }

  sim::Co<Response> query(Env& env) {
    const sim::Pid p = env.pid();
    return query_fate<Base>(env, segs_[p], slices_[p]);
  }

  /// Quiescent-only abstract state for differential cross-checks.
  State abstract_state() const {
    State state;
    state.reserve(static_cast<std::size_t>(n_));
    for (sim::Pid p = 0; p < n_; ++p) state.push_back(peek(p).value);
    return state;
  }

  std::uint64_t fingerprint() const {
    std::uint64_t h = util::kFnvOffset;
    for (sim::Pid p = 0; p < n_; ++p) h = fold_seg(h, peek(p));
    // In-flight coroutine locals (prev collect, moved counters) are a
    // deterministic function of the values each pending op has read so
    // far; folding the per-pid read digests keeps states with different
    // continuations distinct under explorer state caching.
    for (const Slice& me : slices_) h = util::hash_mix(h, me.op_digest);
    for (const Slice& me : slices_) h = me.fold_parked(h, fold_seg);
    return h;
  }

  int n() const { return n_; }

 private:
  struct Seg {
    std::int64_t value = 0;
    std::uint64_t seq = 0;
    std::vector<std::int64_t> view;  ///< writer-embedded scan
  };
  using Slice = SpecialistSlice<Seg, Result>;

  auto read(Env& env, sim::Pid q) {
    return Base::template read<Seg>(env, segs_[static_cast<std::size_t>(q)]);
  }
  /// The caller keeps `seg`, to park it if the write aborts.
  auto write(Env& env, sim::Pid q, const Seg& seg) {
    return Base::template write<Seg>(env, segs_[static_cast<std::size_t>(q)],
                                     seg);
  }
  decltype(auto) peek(sim::Pid q) const {
    return Base::template peek<Seg>(home_, segs_[static_cast<std::size_t>(q)]);
  }

  static std::uint64_t fold_seg(std::uint64_t h, const Seg& seg) {
    h = util::hash_mix(h, seg.value);
    h = util::hash_mix(h, seg.seq);
    return util::hash_range(h, seg.view);
  }
  static void fold_read(Slice& me, const Seg& seg) {
    if constexpr (Base::kExplored) me.op_digest = fold_seg(me.op_digest, seg);
  }

  /// After the collect `cur` that followed `prev`: true iff the scan is
  /// over, with its result in `view`.
  bool scanned(const std::vector<Seg>& prev, const std::vector<Seg>& cur,
               std::vector<int>& moved, Result& view) const {
    bool clean = true;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      if (cur[i].seq == prev[i].seq) continue;
      clean = false;
      if (++moved[i] >= 2 && !mut_.never_borrow) {
        // q moved twice since we started: its latest embedded view was
        // scanned entirely inside our interval.
        view = cur[i].view;
        return true;
      }
    }
    if (!clean) return false;
    view.reserve(cur.size());
    for (const Seg& seg : cur) view.push_back(seg.value);
    return true;
  }

  Home& home_;
  int n_;
  std::vector<typename Base::template Reg<Seg>> segs_;
  std::vector<Slice> slices_;
  SnapshotMutations mut_;
};

}  // namespace tbwf::zoo
