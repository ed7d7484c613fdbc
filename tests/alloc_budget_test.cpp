// Heap-allocation budgets: one explored schedule, and one solo
// real-threads TBWF operation.
//
// The explorer replays every schedule from a fresh World, so whatever a
// simulated QA step allocates is paid hundreds of thousands of times per
// exploration. This binary replaces the global operator new with a
// counting one and holds the canonical n = 3 QA counter exploration to a
// fixed number of allocations per schedule. About 73 are needed:
// building the run (its workload is shared by every run of the
// factory), the protocol's coroutine frames and new states, the history
// and the oracle. The kernel's share of a step and the
// explorer's nodes allocate nothing. A record copy, register op, read
// pass or explorer node that starts allocating again breaks the budget
// long before it shows as noise in the benchmark.
//
// The QA construction shares decided states by pointer: a solo
// RtTbwfObject op builds one new state (a copy of the frontier with the
// op applied) and otherwise copies pointers, so it allocates that state,
// two coroutine frames (the Figure 7 loop and the QA operation it
// drives), and the result it hands back. Its budget is an exact count,
// so it gates the saving that wall-clock numbers only report.
//
// Sanitizer runtimes interpose their own allocator, so the test skips
// itself there.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "qa/sequential_type.hpp"
#include "rt/rt_tbwf.hpp"
#include "verify/explorer.hpp"
#include "verify/qa_harness.hpp"
#include "zoo/zoo_types.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TBWF_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define TBWF_UNDER_SANITIZER 1
#endif
#endif

namespace {
// Single-threaded test binary (the rt cases drive one thread id from
// the main thread): a plain counter is enough.
std::uint64_t g_allocations = 0;

void* counted_malloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tbwf::verify {
namespace {

constexpr double kAllocationsPerSchedule = 78;

TEST(AllocBudget, ExploredQaCounterScheduleStaysWithinBudget) {
#ifdef TBWF_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer allocators make the count meaningless";
#endif
  ExplorerOptions opt;
  opt.name = "alloc-budget";
  opt.max_depth = 400;
  opt.max_runs = 12000;
  Explorer explorer(make_qa_run_factory(counter_explore_config(3, 1)), opt);
  const std::uint64_t before = g_allocations;
  const ExploreResult result = explorer.explore();
  const std::uint64_t allocations = g_allocations - before;
  ASSERT_FALSE(result.violation_found) << result.summary();
  ASSERT_EQ(result.stats.runs, 12000u) << result.summary();
  const double per_schedule = static_cast<double>(allocations) /
                              static_cast<double>(result.stats.runs);
  EXPECT_LE(per_schedule, kAllocationsPerSchedule)
      << allocations << " allocations over " << result.stats.runs
      << " schedules";
  RecordProperty("allocations_per_schedule",
                 std::to_string(static_cast<int>(per_schedule)));
}

}  // namespace
}  // namespace tbwf::verify

namespace tbwf::rt {
namespace {

/// Heap allocations per op of `ops` solo ops after `warmup` more, all
/// issued as tid 0 of a 3-thread object.
template <class S, class MakeOp>
double allocations_per_solo_op(typename S::State initial, MakeOp make_op) {
  constexpr int kWarmup = 200;
  constexpr int kOps = 2000;
  RtTbwfObject<S> obj(3, std::move(initial));
  for (int i = 0; i < kWarmup; ++i) (void)obj.invoke(0, make_op(i));
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < kOps; ++i) (void)obj.invoke(0, make_op(kWarmup + i));
  return static_cast<double>(g_allocations - before) / kOps;
}

TEST(AllocBudget, SoloRtTbwfObjectCounterOpStaysWithinBudget) {
#ifdef TBWF_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer allocators make the count meaningless";
#endif
  // One new state (its last_uid/last_result stay inline at n = 3) and
  // the two coroutine frames, Figure 7's and the QA operation's: 3 per
  // op.
  const double per_op = allocations_per_solo_op<qa::Counter>(
      0, [](int) { return qa::Counter::Op{1}; });
  EXPECT_LE(per_op, 6.0);
  RecordProperty("allocations_per_op", std::to_string(per_op));
}

TEST(AllocBudget, SoloRtTbwfSnapshotOpStaysWithinBudget) {
#ifdef TBWF_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer allocators make the count meaningless";
#endif
  // Alternating own-segment updates and 64-segment scans. Beyond the
  // new state and the two frames, a scan pays for its view: in the
  // state and in the response, which the Figure 7 loop moves out to the
  // caller (5.5 per op on average).
  using zoo::SnapshotType;
  const double per_op = allocations_per_solo_op<SnapshotType>(
      SnapshotType::initial(64), [](int i) {
        return i % 2 == 0 ? SnapshotType::update(0, i) : SnapshotType::scan();
      });
  EXPECT_LE(per_op, 10.0);
  RecordProperty("allocations_per_op", std::to_string(per_op));
}

}  // namespace
}  // namespace tbwf::rt
