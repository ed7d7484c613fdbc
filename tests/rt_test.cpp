// Tests of the real-threads backend: try-lock abortable registers, the
// lease elector, the TBWF-style counter and the baselines, under real
// std::thread concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "rt/rt_baselines.hpp"
#include "rt/rt_registers.hpp"
#include "rt/rt_tbwf.hpp"

namespace tbwf::rt {
namespace {

TEST(RtAbortableReg, SoloOpsNeverAbort) {
  RtAbortableReg<int> reg(5);
  for (int i = 0; i < 1000; ++i) {
    auto v = reg.read();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 5 + i);
    ASSERT_TRUE(reg.write(5 + i + 1));
  }
}

TEST(RtAbortableReg, SuccessfulReadsSeeLatestSuccessfulWrite) {
  RtAbortableReg<std::int64_t> reg(0);
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> last_written{0};
  std::atomic<bool> violation{false};

  std::thread writer([&] {
    std::int64_t v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (reg.write(v + 1)) {
        ++v;
        last_written.store(v, std::memory_order_release);
      }
    }
  });
  std::thread reader([&] {
    std::int64_t prev = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = reg.read();
      if (r.has_value()) {
        // Monotone: single writer, effects ordered by the cell lock.
        if (*r < prev) violation.store(true);
        prev = *r;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop = true;
  writer.join();
  reader.join();
  EXPECT_FALSE(violation.load());
  EXPECT_GT(last_written.load(), 0);
}

// read_into: the rt QA read pass's copy-on-change read.

/// A record of two shared pointers, equal by pointer like the QA records.
struct PtrRec {
  std::shared_ptr<const int> a, b;
  bool operator==(const PtrRec&) const = default;
};

/// Runs `on_destroy` when its last reference dies, so a register that
/// holds shared_ptrs to it shows where that happens.
struct Tripwire {
  explicit Tripwire(std::function<void()> f) : on_destroy(std::move(f)) {}
  Tripwire(const Tripwire&) = delete;
  ~Tripwire() { on_destroy(); }
  std::function<void()> on_destroy;
};
using TripPtr = std::shared_ptr<const Tripwire>;

TripPtr make_trip(std::function<void()> f) {
  return std::make_shared<const Tripwire>(std::move(f));
}

/// Opens one full-rate fault window of `kind` for good.
void arm_open(RtAbortInjector& injector, registers::RegFaultKind kind) {
  injector.arm(/*seed=*/3, /*origin_ns=*/0,
               {{.from_ns = 0,
                 .to_ns = RtAbortInjector::kForeverNs,
                 .rate_millionths = 1000000,
                 .kind = kind}});
}

TEST(RtAbortableReg, ReadIntoUnchangedCellTouchesNoCount) {
  const auto a = std::make_shared<const int>(1);
  const auto b = std::make_shared<const int>(2);
  RtAbortableReg<PtrRec> reg(PtrRec{a, b});
  PtrRec slot{a, b};
  const long a_uses = a.use_count();
  const long b_uses = b.use_count();
  ASSERT_TRUE(reg.read_into(slot));
  EXPECT_EQ(slot.a, a);
  EXPECT_EQ(slot.b, b);
  EXPECT_EQ(a.use_count(), a_uses);
  EXPECT_EQ(b.use_count(), b_uses);
}

TEST(RtAbortableReg, WriteIfRunsItsGuardUnderTheCell) {
  RtAbortableReg<int> reg(1);
  // The guard said no: nothing is written.
  EXPECT_EQ(reg.write_if(2, [] { return false; }), GuardedWrite::Refused);
  EXPECT_EQ(reg.read(), 1);
  // The guard runs while the cell is held, so an operation from inside
  // it finds the cell busy: a write aborts without consulting its guard.
  bool inner_consulted = false;
  GuardedWrite inner = GuardedWrite::Written;
  EXPECT_EQ(reg.write_if(3,
                         [&] {
                           inner = reg.write_if(4, [&] {
                             inner_consulted = true;
                             return true;
                           });
                           return true;
                         }),
            GuardedWrite::Written);
  EXPECT_EQ(inner, GuardedWrite::Aborted);
  EXPECT_FALSE(inner_consulted);
  EXPECT_EQ(reg.read(), 3);
}

/// Counts its copies; moves are free.
struct CopyCounted {
  int v = 0;
  static inline int copies = 0;
  explicit CopyCounted(int x) : v(x) {}
  CopyCounted(const CopyCounted& o) : v(o.v) { ++copies; }
  CopyCounted& operator=(const CopyCounted& o) {
    v = o.v;
    ++copies;
    return *this;
  }
  CopyCounted(CopyCounted&&) = default;
  CopyCounted& operator=(CopyCounted&&) = default;
  bool operator==(const CopyCounted& o) const { return v == o.v; }
};

TEST(RtAbortableReg, ReadIntoCopiesOnlyAChangedValue) {
  RtAbortableReg<CopyCounted> reg(CopyCounted(1));
  CopyCounted slot(1);
  CopyCounted::copies = 0;
  ASSERT_TRUE(reg.read_into(slot));
  EXPECT_EQ(CopyCounted::copies, 0);
  ASSERT_TRUE(reg.write(CopyCounted(2)));
  ASSERT_TRUE(reg.read_into(slot));
  EXPECT_EQ(slot.v, 2);
  EXPECT_EQ(CopyCounted::copies, 1);
}

TEST(RtAbortableReg, ReadIntoChangedCellReplacesSlot) {
  const auto a = std::make_shared<const int>(1);
  const auto b = std::make_shared<const int>(2);
  const auto c = std::make_shared<const int>(3);
  RtAbortableReg<PtrRec> reg(PtrRec{a, a});
  PtrRec slot{a, a};
  ASSERT_TRUE(reg.write(PtrRec{b, c}));
  const long a_uses = a.use_count();
  ASSERT_TRUE(reg.read_into(slot));
  EXPECT_EQ(slot.a, b);
  EXPECT_EQ(slot.b, c);
  EXPECT_EQ(a.use_count(), a_uses - 2) << "the slot's old references";
  EXPECT_EQ(slot, *reg.read());
}

TEST(RtAbortableReg, ReadIntoStaleWindowServesPreviousValue) {
  RtAbortableReg<int> reg(1);
  ASSERT_TRUE(reg.write(2));
  RtAbortInjector injector;
  arm_open(injector, registers::RegFaultKind::Stale);
  reg.set_injector(&injector);
  int slot = 0;
  ASSERT_TRUE(reg.read_into(slot));
  EXPECT_EQ(slot, 1);
  ASSERT_TRUE(reg.read_into(slot));  // the previous value, now unchanged
  EXPECT_EQ(slot, 1);
  reg.set_injector(nullptr);
  ASSERT_TRUE(reg.read_into(slot));
  EXPECT_EQ(slot, 2);
}

TEST(RtAbortableReg, ReadIntoAbortsLeaveSlotUntouched) {
  const auto a = std::make_shared<const int>(1);
  const auto b = std::make_shared<const int>(2);
  RtAbortableReg<PtrRec> reg(PtrRec{b, b});
  PtrRec slot{a, a};
  const long a_uses = a.use_count();
  const long b_uses = b.use_count();
  for (const auto kind :
       {registers::RegFaultKind::Flake, registers::RegFaultKind::Jam}) {
    RtAbortInjector injector;
    arm_open(injector, kind);
    reg.set_injector(&injector);
    EXPECT_FALSE(reg.read_into(slot)) << registers::to_string(kind);
    reg.set_injector(nullptr);
    EXPECT_EQ(slot, (PtrRec{a, a}));
    EXPECT_EQ(a.use_count(), a_uses);
    EXPECT_EQ(b.use_count(), b_uses);
  }

  // A busy cell: write(const T&) assigns over the value it displaces
  // under the cell, so when that drops the tripwire's last reference its
  // destructor runs inside the critical section and finds the cell taken.
  const TripPtr calm = make_trip([] {});
  const TripPtr kept = make_trip([] {});  // never in the cell
  TripPtr trip_slot = kept;
  RtAbortableReg<TripPtr>* busy_reg = nullptr;
  bool fired = false;
  bool aborted = false;
  bool untouched = false;
  RtAbortableReg<TripPtr> busy(make_trip([&] {
    fired = true;
    const long uses = kept.use_count();
    aborted = !busy_reg->read_into(trip_slot);
    untouched = trip_slot == kept && kept.use_count() == uses;
  }));
  busy_reg = &busy;
  ASSERT_TRUE(busy.write(calm));  // the previous value still holds it
  ASSERT_FALSE(fired);
  ASSERT_TRUE(busy.write(calm));
  ASSERT_TRUE(fired);
  EXPECT_TRUE(aborted);
  EXPECT_TRUE(untouched);
}

// The sink-write rule (docs/MODEL.md): a value whose destruction frees
// memory never dies inside the cell. Each tripwire reads its register
// from its destructor, which would abort on the cell's own lock.
TEST(RtAbortableReg, SinkWriteDropsDisplacedValueOutsideTheCell) {
  RtAbortableReg<TripPtr>* reg_ptr = nullptr;
  bool fired = false;
  bool read_ok = false;
  RtAbortableReg<TripPtr> reg(make_trip([&] {
    fired = true;
    read_ok = reg_ptr->read().has_value();
  }));
  reg_ptr = &reg;
  const TripPtr calm = make_trip([] {});
  ASSERT_TRUE(reg.write(TripPtr(calm)));  // the previous value holds it
  ASSERT_FALSE(fired);
  ASSERT_TRUE(reg.write(TripPtr(calm)));
  ASSERT_TRUE(fired);
  EXPECT_TRUE(read_ok) << "the displaced value died inside the cell";
}

TEST(RtAbortableReg, ReadIntoDropsDisplacedSlotOutsideTheCell) {
  RtAbortableReg<TripPtr> reg(make_trip([] {}));
  bool fired = false;
  bool read_ok = false;
  TripPtr slot = make_trip([&] {
    fired = true;
    read_ok = reg.read().has_value();
  });
  ASSERT_TRUE(reg.read_into(slot));
  ASSERT_TRUE(fired);
  EXPECT_TRUE(read_ok) << "the displaced slot value died inside the cell";
}

TEST(RtAbortableReg, ReadIntoSeesConsistentMonotoneRecords) {
  RtAbortableReg<PtrRec> reg(PtrRec{std::make_shared<const int>(0),
                                    std::make_shared<const int>(0)});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto p = std::make_shared<const int>(v + 1);
      if (reg.write(PtrRec{p, p})) ++v;
    }
  });
  int reads = 0;
  int prev = 0;
  bool violation = false;  // a torn record, or a value going back
  PtrRec slot{};
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (!violation && std::chrono::steady_clock::now() < until) {
    if (!reg.read_into(slot)) continue;
    ++reads;
    violation = slot.a == nullptr || *slot.a != *slot.b || *slot.a < prev;
    if (!violation) prev = *slot.a;
  }
  stop = true;
  writer.join();
  EXPECT_FALSE(violation);
  EXPECT_GT(reads, 0);
}

TEST(LeaseElector, SingleThreadAcquiresImmediately) {
  LeaseElector e(std::chrono::milliseconds(10));
  EXPECT_TRUE(e.try_lead(3));
  EXPECT_TRUE(e.try_lead(3));  // renew while valid
  EXPECT_FALSE(e.try_lead(4));  // someone else holds it
  e.release(3);
  EXPECT_TRUE(e.try_lead(4));
}

TEST(LeaseElector, ExpiredLeaseIsStealable) {
  LeaseElector e(std::chrono::microseconds(200));
  ASSERT_TRUE(e.try_lead(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(e.try_lead(2)) << "expired lease must be stealable";
}

TEST(LeaseElector, MutualExclusionWhileValid) {
  LeaseElector e(std::chrono::seconds(5));
  std::atomic<int> holders{0};
  std::atomic<int> max_holders{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        if (e.try_lead(t)) {
          const int h = holders.fetch_add(1) + 1;
          int m = max_holders.load();
          while (h > m && !max_holders.compare_exchange_weak(m, h)) {
          }
          std::this_thread::yield();
          holders.fetch_sub(1);
          e.release(t);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(max_holders.load(), 1);
}

TEST(RtBaselines, CountersAgreeUnderConcurrency) {
  RtMutexCounter m;
  RtCasCounter c;
  RtFaaCounter f;
  const int threads = 4, per_thread = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < per_thread; ++i) {
        m.fetch_add(1);
        c.fetch_add(1);
        f.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(m.fetch_add(0), threads * per_thread);
  EXPECT_EQ(c.fetch_add(0), threads * per_thread);
  EXPECT_EQ(f.fetch_add(0), threads * per_thread);
}

}  // namespace
}  // namespace tbwf::rt

// -- the real-threads QA universal construction -------------------------------------

#include "rt/rt_qa.hpp"

namespace tbwf::rt {
namespace {

TEST(RtQaUniversal, SoloOpsAlwaysSucceed) {
  RtQaUniversal<qa::Counter> obj(1, 0);
  for (int i = 0; i < 200; ++i) {
    auto r = obj.invoke(0, qa::Counter::Op{1});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, i);
  }
  EXPECT_EQ(obj.frontier_snapshot().state, 200);
}

TEST(RtQaUniversal, QueryReportsLastOpFate) {
  RtQaUniversal<qa::Counter> obj(2, 0);
  EXPECT_TRUE(obj.query(0).not_applied());  // no prior op
  auto r = obj.invoke(0, qa::Counter::Op{5});
  ASSERT_TRUE(r.ok());
  auto q = obj.query(0);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value, r.value);
}

TEST(RtQaUniversal, ContendedAccountingIsExact) {
  const int threads = 4;
  const int ops = 3000;
  RtQaUniversal<qa::Counter> obj(threads, 0);
  std::atomic<std::int64_t> applied{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < ops; ++i) {
        auto r = obj.invoke(t, qa::Counter::Op{1});
        while (r.bottom()) {
          r = obj.query(t);
          if (r.bottom()) std::this_thread::yield();
        }
        if (r.ok()) applied.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(obj.frontier_snapshot().state, applied.load());
}

TEST(RtQaUniversal, OutOfRangeTidDies) {
  // Re-executes the binary for the child instead of forking it: safe
  // under TSan, which forbids threads after a fork.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RtQaUniversal<qa::Counter> obj(2, 0);
  EXPECT_DEATH((void)obj.invoke(2, qa::Counter::Op{1}), "tid out of range");
  EXPECT_DEATH((void)obj.query(5), "tid out of range");
  EXPECT_DEATH((void)obj.local_decided(2), "tid out of range");
}

TEST(RtTbwfObject, SoloCounterCountsExactly) {
  RtTbwfObject<qa::Counter> obj(1, 0);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(obj.invoke(0, qa::Counter::Op{1}), i);
  }
}

// Figure 7 line 2 on threads: a thread that still holds a live lease
// when it invokes waits for the lease to lapse and runs the operation
// under a new tenure, instead of renewing the one it holds.
TEST(RtTbwfObject, CanonicalWaitStartsANewTenure) {
  RtTbwfObject<qa::Counter> obj(2, 0, std::chrono::milliseconds(2));
  ASSERT_TRUE(obj.elector().try_lead(0));
  const std::uint64_t held = obj.elector().fence();
  EXPECT_EQ(obj.invoke(0, qa::Counter::Op{1}), 0);
  EXPECT_GT(obj.elector().fence(), held);
  EXPECT_EQ(obj.elector().owner(), LeaseElector::kNoOwner);
}

TEST(RtTbwfObject, CounterExactlyOnceAcrossThreads) {
  const int threads = 4;
  const int ops = 1500;
  RtTbwfObject<qa::Counter> obj(threads, 0,
                                std::chrono::microseconds(30));
  std::atomic<std::int64_t> sum_before{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < ops; ++i) {
        sum_before.fetch_add(obj.invoke(t, qa::Counter::Op{1}));
      }
    });
  }
  for (auto& th : pool) th.join();
  const std::int64_t total = threads * ops;
  EXPECT_EQ(obj.qa().peek_frontier().state, total);
  // Linearizable fetch-and-add: the "before" values are {0..total-1}.
  EXPECT_EQ(sum_before.load(), total * (total - 1) / 2);
}

// A 20 µs lease lapses often mid-operation, so a descheduled former
// leader keeps racing the next one; no increment may be lost or doubled.
TEST(RtTbwfObject, ShortLeaseCounterExactlyOnce) {
  const int threads = 4;
  const int per_thread = 2000;
  RtTbwfObject<qa::Counter> obj(threads, 0,
                                std::chrono::microseconds(20));
  std::atomic<std::int64_t> sum_before{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        sum_before.fetch_add(obj.invoke(t, qa::Counter::Op{1}));
      }
    });
  }
  for (auto& th : pool) th.join();
  const std::int64_t total = threads * per_thread;
  EXPECT_EQ(obj.invoke(0, qa::Counter::Op{0}), total);
  EXPECT_EQ(obj.qa().peek_frontier().state, total);
  EXPECT_EQ(sum_before.load(), total * (total - 1) / 2);
}

TEST(RtTbwfObject, QueueExactlyOnceAcrossThreads) {
  const int threads = 3;
  const int per_thread = 400;
  RtTbwfObject<qa::Queue> obj(threads, {});
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        (void)obj.invoke(t, qa::Queue::enqueue(t * 100000 + i));
      }
    });
  }
  for (auto& th : pool) th.join();
  const auto state = obj.qa().peek_frontier().state;
  ASSERT_EQ(state.size(),
            static_cast<std::size_t>(threads * per_thread));
  // Per-producer FIFO order.
  std::vector<std::int64_t> last(threads, -1);
  for (const auto v : state) {
    const int t = static_cast<int>(v / 100000);
    EXPECT_GT(v % 100000, last[t]);
    last[t] = v % 100000;
  }
}

}  // namespace
}  // namespace tbwf::rt
