// Real-thread tests of the batched announce/combine/help engine
// (qa::BatchedQaUniversal run through rt::RtQaBatched): exactness under
// contention, tombstone fate sealing, the helping bound for a thread
// that never combines, and a soak asserting that live states stay
// bounded (no unbounded garbage).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "qa/sequential_type.hpp"
#include "rt/rt_qa.hpp"
#include "rt_counted_state.hpp"

namespace tbwf::rt {
namespace {

using I64 = std::int64_t;
using Obj = RtQaBatched<qa::Counter>;

TEST(RtQaBatched, SoloApplyCountsExactlyInOrder) {
  Obj obj(1, 0);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(obj.apply(0, qa::Counter::Op{1}), i);
  }
  EXPECT_EQ(obj.state_snapshot().state.inner, 500);
  EXPECT_EQ(obj.ops_started(0), 500u);
}

TEST(RtQaBatched, ContendedApplyIsExactlyOnce) {
  constexpr int kThreads = 4;
  constexpr int kOps = 1000;
  Obj obj(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        (void)obj.apply(static_cast<Obj::Tid>(t), qa::Counter::Op{1});
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(obj.state_snapshot().state.inner, kThreads * kOps);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(obj.ops_started(static_cast<Obj::Tid>(t)),
              static_cast<std::uint64_t>(kOps));
  }
}

TEST(RtQaBatched, InvokeQueryFatesAccountExactly) {
  constexpr int kThreads = 4;
  constexpr int kOps = 500;
  Obj obj(kThreads, 0);
  std::vector<I64> applied(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const auto tid = static_cast<Obj::Tid>(t);
      for (int i = 0; i < kOps; ++i) {
        auto r = obj.invoke(tid, qa::Counter::Op{1});
        while (r.bottom()) {
          r = obj.query(tid);
          if (r.bottom()) std::this_thread::yield();
        }
        if (r.ok()) ++applied[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& th : pool) th.join();
  I64 total = 0;
  for (int t = 0; t < kThreads; ++t) total += applied[static_cast<std::size_t>(t)];
  // Every resolved Ok was applied exactly once; every F was not applied.
  EXPECT_EQ(obj.state_snapshot().state.inner, total);
}

TEST(RtQaBatched, QueryTombstoneSealsOpenFate) {
  Obj::Options opt;
  opt.patience = 0;
  opt.combine_attempts = 0;  // invoke() gives up at once: fate stays open
  Obj obj(1, 0, opt);
  auto r = obj.invoke(0, qa::Counter::Op{7});
  ASSERT_TRUE(r.bottom());
  auto q = obj.query(0);
  EXPECT_TRUE(q.not_applied());  // tombstone voided the op; F is final
  EXPECT_EQ(obj.state_snapshot().state.inner, 0);
  // A fresh op from the same thread still goes through afterwards.
  EXPECT_EQ(obj.apply(0, qa::Counter::Op{1}), 0);
  EXPECT_EQ(obj.state_snapshot().state.inner, 1);
}

// Helping bound: a thread with unbounded patience NEVER runs the slow
// path, yet completes every op because combiners drain its announce.
TEST(RtQaBatched, HelpingCarriesPatientThread) {
  constexpr int kThreads = 3;
  constexpr int kOps = 200;
  Obj::Options opt;
  opt.patience = 16;
  Obj obj(kThreads, 0, opt);
  obj.set_patience(0, INT_MAX);
  std::atomic<bool> patient_done{false};
  std::vector<std::thread> pool;
  pool.emplace_back([&] {
    for (int i = 0; i < kOps; ++i) {
      (void)obj.apply(0, qa::Counter::Op{1});
    }
    patient_done.store(true, std::memory_order_release);
  });
  for (int t = 1; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      while (!patient_done.load(std::memory_order_acquire)) {
        (void)obj.apply(static_cast<Obj::Tid>(t), qa::Counter::Op{0});
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(obj.combines(0), 0u);
  EXPECT_EQ(obj.fast_completions(0), static_cast<std::uint64_t>(kOps));
  // Only thread 0 adds non-zero deltas.
  EXPECT_EQ(obj.state_snapshot().state.inner, kOps);
}

// Soak: saturating applies for TBWF_BATCHED_SOAK_MS (default 2 s; CI
// runs 60 s) must keep memory bounded -- the no-unbounded-garbage
// criterion. Every decided state is a shared, immutable record of the
// inner construction. Beyond the holders census::live_state_bound(n)
// counts (4 * (4 + 16) = 80 at n = 4), only the engine's board holds
// states: its cell's value and previous value (2), each thread's last
// poll (n), and each thread's read copy before it lands (n). So the
// states alive at once never exceed 80 + 2 + 8 = 90 at n = 4, however
// long the run, and destroying the engine frees every one.
TEST(RtQaBatchedSoak, ReclamationStaysBounded) {
  int soak_ms = 2000;
  if (const char* env = std::getenv("TBWF_BATCHED_SOAK_MS")) {
    soak_ms = std::max(1, std::atoi(env));
  }
  constexpr int kThreads = 4;
  using Counted = RtQaBatched<census::CountedCounter>;
  census::reset_census();
  {
    Counted obj(kThreads);
    std::atomic<bool> stop{false};
    std::vector<I64> ops(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        const auto tid = static_cast<Counted::Tid>(t);
        while (!stop.load(std::memory_order_acquire)) {
          (void)obj.apply(tid, census::CountedCounter::Op{1});
          ++ops[static_cast<std::size_t>(t)];
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(soak_ms));
    stop.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();

    I64 total = 0;
    for (int t = 0; t < kThreads; ++t) {
      total += ops[static_cast<std::size_t>(t)];
    }
    EXPECT_EQ(obj.state_snapshot().state.inner.value, total);
    EXPECT_GT(total, 0);
  }
  const std::int64_t peak =
      census::g_peak_states.load(std::memory_order_relaxed);
  EXPECT_LE(peak, census::live_state_bound(kThreads) + 2 + 2 * kThreads);
  RecordProperty("peak_live_states", std::to_string(peak));
  EXPECT_EQ(census::g_live_states.load(std::memory_order_relaxed), 0)
      << "a state outlived its engine";
}

}  // namespace
}  // namespace tbwf::rt
