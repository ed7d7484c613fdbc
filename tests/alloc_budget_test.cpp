// Heap-allocation budget of one explored schedule.
//
// The explorer replays every schedule from a fresh World, so whatever a
// simulated QA step allocates is paid hundreds of thousands of times per
// exploration. This binary replaces the global operator new with a
// counting one and holds the canonical n = 3 QA counter exploration to a
// fixed number of allocations per schedule (about 187 are needed). A
// record copy, register op or read pass that starts allocating again
// breaks the budget long before it shows as noise in the benchmark.
//
// Sanitizer runtimes interpose their own allocator, so the test skips
// itself there.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "verify/explorer.hpp"
#include "verify/qa_harness.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TBWF_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define TBWF_UNDER_SANITIZER 1
#endif
#endif

namespace {
// Single-threaded test binary: a plain counter is enough.
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

constexpr double kAllocationsPerSchedule = 250;

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
