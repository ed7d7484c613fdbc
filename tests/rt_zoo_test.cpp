// Real-thread zoo: the specialists (WfSnapshot, WfLedger -- the
// explorer-checked sim coroutines, instantiated on rt::RtBase's
// try-lock abortable registers and run through rt::RtFront) and the rt
// universal twins (RtQaUniversal over the same zoo_types.hpp specs; the
// bounded queue has only this twin),
// all graded by the SAME Wing-Gong oracle as the sim twins. Real-time
// operation intervals come from a global atomic ticket stamped at
// invocation and at fate settlement; per-thread histories are merged
// after join. Solo runs must never answer bottom (the graded-guarantee
// base case); contended runs chase bottoms through query until the
// fate settles, then the merged history must linearize.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "rt/rt_qa.hpp"
#include "verify/history.hpp"
#include "verify/lin_oracle.hpp"
#include "zoo/ledger.hpp"
#include "zoo/snapshot.hpp"
#include "zoo/zoo_types.hpp"

namespace tbwf::zoo {
namespace {

using verify::HistoryOp;
using verify::OpStatus;

using RtSnapshot = rt::RtFront<WfSnapshot<rt::RtBase>>;
using RtLedger = rt::RtFront<WfLedger<rt::RtBase>>;

// -- rt history driver ----------------------------------------------------

// Drives one op on any rt zoo object (invoke(tid, op)/query(tid)),
// chasing bottom through query until the fate settles, and records the
// interval with ticket stamps. An op that is still bottom after the
// chase budget is recorded as Bottom -- optional for the oracle.
template <class S, class Obj>
HistoryOp<S> drive_op(Obj& obj, std::uint32_t tid, typename S::Op op,
                      std::atomic<std::uint64_t>& ticket) {
  HistoryOp<S> h;
  h.pid = static_cast<sim::Pid>(tid);
  h.op = op;
  h.invoked_at = ticket.fetch_add(1, std::memory_order_acq_rel);
  auto r = obj.invoke(tid, op);
  int chases = 0;
  while (r.bottom() && chases++ < 4096) {
    std::this_thread::yield();
    r = obj.query(tid);
  }
  h.responded_at = ticket.fetch_add(1, std::memory_order_acq_rel);
  h.responses = 1;
  if (r.ok()) {
    h.status = OpStatus::Ok;
    h.result = r.value;
  } else if (r.not_applied()) {
    h.status = OpStatus::NotApplied;
  } else {
    h.status = OpStatus::Bottom;
  }
  return h;
}

template <class S, class Obj>
std::vector<HistoryOp<S>> run_threads(
    Obj& obj, const std::vector<std::vector<typename S::Op>>& ops) {
  std::atomic<std::uint64_t> ticket{1};
  std::vector<std::vector<HistoryOp<S>>> per_thread(ops.size());
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < ops.size(); ++t) {
    pool.emplace_back([&, t] {
      for (const auto& op : ops[t]) {
        per_thread[t].push_back(drive_op<S>(obj, t, op, ticket));
      }
    });
  }
  for (auto& th : pool) th.join();
  std::vector<HistoryOp<S>> merged;
  for (auto& h : per_thread) {
    merged.insert(merged.end(), h.begin(), h.end());
  }
  return merged;
}

template <class S>
void expect_linearizable(const std::vector<HistoryOp<S>>& history,
                         const typename S::State& initial, const char* tag) {
  typename verify::LinOracle<S>::Options opt;
  opt.max_states = 4000000;
  const auto verdict = verify::LinOracle<S>(opt).check(history, initial);
  EXPECT_TRUE(verdict.linearizable()) << tag << ": " << verdict.summary();
}

// -- snapshot -------------------------------------------------------------

std::vector<std::vector<SnapshotType::Op>> snapshot_ops(int nthreads,
                                                        int rounds) {
  std::vector<std::vector<SnapshotType::Op>> ops(
      static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    for (int k = 0; k < rounds; ++k) {
      ops[static_cast<std::size_t>(t)].push_back(
          SnapshotType::update(t, t * 100 + k + 1));
      ops[static_cast<std::size_t>(t)].push_back(SnapshotType::scan());
    }
  }
  return ops;
}

TEST(RtZoo, SnapshotSoloNeverBottomsAndScansExactly) {
  RtSnapshot snap(1, {9});
  auto r = snap.invoke(0, SnapshotType::scan());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, (std::vector<std::int64_t>{9}));
  r = snap.invoke(0, SnapshotType::update(0, 11));
  ASSERT_TRUE(r.ok());
  r = snap.invoke(0, SnapshotType::scan());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, (std::vector<std::int64_t>{11}));
}

TEST(RtZoo, SnapshotSpecialistContendedLinearizable) {
  constexpr int kThreads = 3;
  const auto initial = SnapshotType::initial(kThreads);
  RtSnapshot snap(kThreads, initial);
  const auto history =
      run_threads<SnapshotType>(snap, snapshot_ops(kThreads, 4));
  expect_linearizable<SnapshotType>(history, initial, "rt-snap-spec");
}

TEST(RtZoo, SnapshotUniversalContendedLinearizable) {
  constexpr int kThreads = 3;
  const auto initial = SnapshotType::initial(kThreads);
  rt::RtQaUniversal<SnapshotType> snap(kThreads, initial);
  const auto history =
      run_threads<SnapshotType>(snap, snapshot_ops(kThreads, 4));
  expect_linearizable<SnapshotType>(history, initial, "rt-snap-uni");
}

// -- ledger ---------------------------------------------------------------

std::vector<std::vector<LedgerType::Op>> ledger_ops(int nthreads,
                                                    int rounds) {
  std::vector<std::vector<LedgerType::Op>> ops(
      static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    for (int k = 0; k < rounds; ++k) {
      ops[static_cast<std::size_t>(t)].push_back(
          LedgerType::put(7, t * 100 + k));
      ops[static_cast<std::size_t>(t)].push_back(LedgerType::get(7));
    }
  }
  return ops;
}

TEST(RtZoo, LedgerSoloNeverBottoms) {
  RtLedger ledger(1, {});
  auto r = ledger.invoke(0, LedgerType::get(7));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, LedgerType::kAbsent);
  r = ledger.invoke(0, LedgerType::put(7, 42));
  ASSERT_TRUE(r.ok());
  r = ledger.invoke(0, LedgerType::get(7));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 42);
}

TEST(RtZoo, LedgerSpecialistContendedLinearizable) {
  constexpr int kThreads = 3;
  RtLedger ledger(kThreads, {});
  const auto history = run_threads<LedgerType>(ledger, ledger_ops(kThreads, 4));
  expect_linearizable<LedgerType>(history, {}, "rt-ledger-spec");
}

TEST(RtZoo, LedgerUniversalContendedLinearizable) {
  constexpr int kThreads = 3;
  rt::RtQaUniversal<LedgerType> ledger(kThreads, {});
  const auto history = run_threads<LedgerType>(ledger, ledger_ops(kThreads, 4));
  expect_linearizable<LedgerType>(history, {}, "rt-ledger-uni");
}

// -- bounded MPMC queue ---------------------------------------------------

using RtQ4 = BoundedQueueOf<4>;

TEST(RtZoo, QueueSoloFifoFullEmptyExact) {
  using Q = BoundedQueueOf<2>;
  rt::RtQaUniversal<Q> q(1, {});
  auto r = q.invoke(0, Q::enqueue(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 1);
  r = q.invoke(0, Q::enqueue(2));
  ASSERT_TRUE(r.ok());
  r = q.invoke(0, Q::enqueue(3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, Q::kFull);
  r = q.invoke(0, Q::dequeue());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 1);
  r = q.invoke(0, Q::dequeue());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 2);
  r = q.invoke(0, Q::dequeue());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, Q::kEmpty);
}

std::vector<std::vector<RtQ4::Op>> queue_ops(int nthreads, int rounds) {
  std::vector<std::vector<RtQ4::Op>> ops(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    for (int k = 0; k < rounds; ++k) {
      ops[static_cast<std::size_t>(t)].push_back(
          RtQ4::enqueue(t * 100 + k + 1));
      ops[static_cast<std::size_t>(t)].push_back(RtQ4::dequeue());
    }
  }
  return ops;
}

// Multiset conservation over the merged history: every Ok dequeue
// returns a distinct Ok-enqueued value (exactly-once, no duplication).
void check_rt_conservation(const std::vector<HistoryOp<RtQ4>>& history) {
  std::vector<std::int64_t> enq, deq;
  for (const auto& h : history) {
    if (h.status != OpStatus::Ok) continue;
    if (h.op.is_enqueue && h.result != RtQ4::kFull) enq.push_back(h.result);
    if (!h.op.is_enqueue && h.result != RtQ4::kEmpty) deq.push_back(h.result);
  }
  for (const std::int64_t v : deq) {
    auto it = std::find(enq.begin(), enq.end(), v);
    ASSERT_NE(it, enq.end())
        << "dequeued " << v << " was never enqueued (or dequeued twice)";
    enq.erase(it);
  }
}

TEST(RtZoo, QueueUniversalContendedLinearizable) {
  constexpr int kThreads = 3;
  rt::RtQaUniversal<RtQ4> q(kThreads, {});
  const auto history = run_threads<RtQ4>(q, queue_ops(kThreads, 4));
  check_rt_conservation(history);
  expect_linearizable<RtQ4>(history, {}, "rt-queue-uni");
}

}  // namespace
}  // namespace tbwf::zoo
