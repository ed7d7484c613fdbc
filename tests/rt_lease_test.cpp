// LeaseElector unit tests: the owner-sentinel regression, 40-bit clock
// wraparound, fencing, and the adaptive LeaseCalibrator. All timing
// here is synthetic -- the elector takes an injectable clock, so these
// tests are exact, single-threaded, and instant.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>

#include <gtest/gtest.h>

#include "rt/rt_registers.hpp"
#include "rt/rt_tbwf.hpp"

namespace tbwf::rt {
namespace {

using std::chrono::microseconds;
using std::chrono::nanoseconds;

// The elector's ClockFn is a plain function pointer, so the synthetic
// clock lives in a file-scope atomic.
std::atomic<std::uint64_t> g_fake_now{0};
std::uint64_t fake_clock() { return g_fake_now.load(); }

LeaseElector make_elector(std::uint64_t term_ns, std::uint64_t start_ns = 0) {
  g_fake_now.store(start_ns);
  return LeaseElector(nanoseconds(term_ns), &fake_clock);
}

// -- satellite 1: the kNoOwner sentinel regression ---------------------------
//
// The seed packed kNoOwner into the 24-bit owner field as kNoOwner >> 8
// but compared owner() against the unshifted 32-bit constant, so a
// freshly constructed (or released) elector never reported "no owner".
// The sentinel is now a single 24-bit constant used on both sides.

TEST(LeaseElectorSentinelTest, SentinelFitsTheOwnerField) {
  // A 24-bit field can represent kNoOwner without truncation; if the
  // sentinel ever grows past the field, packing would corrupt it again.
  static_assert(LeaseElector::kNoOwner <= 0xFFFFFFu);
  static_assert((LeaseElector::kNoOwner & 0xFFFFFFu) ==
                LeaseElector::kNoOwner);
}

TEST(LeaseElectorSentinelTest, FreshElectorHasNoOwner) {
  LeaseElector e = make_elector(1000000);
  EXPECT_EQ(e.owner(), LeaseElector::kNoOwner);
}

TEST(LeaseElectorSentinelTest, ReleaseRestoresTheSentinel) {
  LeaseElector e = make_elector(1000000);
  ASSERT_TRUE(e.try_lead(3));
  EXPECT_EQ(e.owner(), 3u);
  e.release(3);
  EXPECT_EQ(e.owner(), LeaseElector::kNoOwner);
  // And the freed word is immediately acquirable by anyone.
  EXPECT_TRUE(e.try_lead(7));
  EXPECT_EQ(e.owner(), 7u);
}

TEST(LeaseElectorSentinelTest, MaxRealTidRoundTrips) {
  // The largest real tid (one below the sentinel) must survive the
  // 24-bit pack/unpack intact.
  LeaseElector e = make_elector(1000000);
  const std::uint32_t tid = LeaseElector::kNoOwner - 1;
  ASSERT_TRUE(e.try_lead(tid));
  EXPECT_EQ(e.owner(), tid);
}

// -- satellite 2: 40-bit expiry wraparound -----------------------------------
//
// The 40-bit nanosecond clock wraps every ~18.3 minutes. The seed
// compared `now < expiry` directly, so a lease whose expiry wrapped
// past 2^40 read as already expired (instantly stealable), and a stale
// pre-wrap expiry read as live forever after the clock wrapped. The
// ring comparison fixes both; these tests pin the exact boundary cases
// with a synthetic clock.

constexpr std::uint64_t kWrap = 1ULL << 40;

TEST(LeaseElectorWrapTest, LeaseStraddlingTheWrapIsLive) {
  // Acquire 1 us before the clock wraps with a 10 us term: the packed
  // expiry is a *small* number (9 us past zero). The lease must still
  // be held and not stealable.
  LeaseElector e = make_elector(10000, kWrap - 1000);
  ASSERT_TRUE(e.try_lead(1));
  EXPECT_EQ(e.owner(), 1u);
  EXPECT_FALSE(e.try_lead(2));

  // Cross the wrap; the lease has 9 us left.
  g_fake_now.store(kWrap + 5000);
  EXPECT_EQ(e.owner(), 1u);
  EXPECT_FALSE(e.try_lead(2));

  // Past the wrapped expiry it must become stealable.
  g_fake_now.store(kWrap + 20000);
  EXPECT_EQ(e.owner(), LeaseElector::kNoOwner);
  EXPECT_TRUE(e.try_lead(2));
  EXPECT_EQ(e.owner(), 2u);
}

TEST(LeaseElectorWrapTest, StaleExpiryIsNotImmortalAfterTheWrap) {
  // Acquire just before the wrap so the expiry stays below 2^40, then
  // let the clock wrap. now (small) < expiry (huge) -- the naive
  // comparison would call this lease live forever. The ring comparison
  // sees expiry ~2^40 *behind* now and expires it.
  LeaseElector e = make_elector(10000, kWrap - 20000);
  ASSERT_TRUE(e.try_lead(1));  // expiry = 2^40 - 10000
  g_fake_now.store(kWrap + 1000);
  EXPECT_EQ(e.owner(), LeaseElector::kNoOwner);
  EXPECT_TRUE(e.try_lead(2));
}

TEST(LeaseElectorWrapTest, ValidateRespectsTheRingComparison) {
  LeaseElector e = make_elector(10000, kWrap - 1000);
  std::uint64_t token = 0;
  ASSERT_TRUE(e.try_lead(1, &token));
  g_fake_now.store(kWrap + 5000);  // wrapped, lease still live
  EXPECT_TRUE(e.validate(1, token));
  g_fake_now.store(kWrap + 20000);  // wrapped AND expired
  EXPECT_FALSE(e.validate(1, token));
}

TEST(LeaseElectorWrapTest, TermsAreClampedToTheHalfWindowSafeCap) {
  // A pathological term must not place the expiry past the half-window
  // (where the ring comparison would read a live lease as expired).
  LeaseElector e(std::chrono::hours(24), &fake_clock);
  g_fake_now.store(0);
  ASSERT_TRUE(e.try_lead(1));
  EXPECT_EQ(e.owner(), 1u);  // live despite the absurd requested term
  g_fake_now.store(LeaseElector::kMaxTermNs + 1000);
  EXPECT_EQ(e.owner(), LeaseElector::kNoOwner);  // expired at the cap
}

// -- fencing ----------------------------------------------------------------

TEST(LeaseElectorFenceTest, TokenSurvivesRenewalButNotReacquisition) {
  LeaseElector e = make_elector(10000);
  std::uint64_t t1 = 0;
  ASSERT_TRUE(e.try_lead(1, &t1));
  // Renewal: same tenure, same token.
  g_fake_now.fetch_add(5000);
  std::uint64_t t1b = 0;
  ASSERT_TRUE(e.try_lead(1, &t1b));
  EXPECT_EQ(t1b, t1);
  EXPECT_TRUE(e.validate(1, t1));
  // Lapse and reacquire: new tenure, new token; the old one is dead.
  g_fake_now.fetch_add(50000);
  std::uint64_t t2 = 0;
  ASSERT_TRUE(e.try_lead(1, &t2));
  EXPECT_GT(t2, t1);
  EXPECT_TRUE(e.validate(1, t2));
  EXPECT_FALSE(e.validate(1, t1));
}

TEST(LeaseElectorFenceTest, StolenLeaseFencesOutTheOldHolder) {
  LeaseElector e = make_elector(10000);
  std::uint64_t t1 = 0;
  ASSERT_TRUE(e.try_lead(1, &t1));
  g_fake_now.fetch_add(50000);  // thread 1 sleeps through its term
  std::uint64_t t2 = 0;
  ASSERT_TRUE(e.try_lead(2, &t2));
  EXPECT_FALSE(e.validate(1, t1));  // wrong owner
  EXPECT_TRUE(e.validate(2, t2));
  // Even if thread 2 releases (owner field free again), thread 1's old
  // token must never validate.
  e.release(2);
  EXPECT_FALSE(e.validate(1, t1));
}

TEST(LeaseElectorFenceTest, RevokeKillsTheTokenImmediately) {
  // The supervisor-restart path: the lease is still live (the dead
  // worker's term has not lapsed) when revoke fires on its behalf.
  LeaseElector e = make_elector(1000000);
  std::uint64_t t1 = 0;
  ASSERT_TRUE(e.try_lead(1, &t1));
  const std::uint64_t fence_before = e.fence();
  e.revoke(1);
  EXPECT_EQ(e.owner(), LeaseElector::kNoOwner);
  EXPECT_GT(e.fence(), fence_before);
  // The revived incarnation replays the stale token: must fail, even
  // though nobody else has touched the lease in between.
  EXPECT_FALSE(e.validate(1, t1));
  // And a fresh acquisition by the same tid gets a fresh token.
  std::uint64_t t2 = 0;
  ASSERT_TRUE(e.try_lead(1, &t2));
  EXPECT_GT(t2, t1);
  EXPECT_FALSE(e.validate(1, t1));
  EXPECT_TRUE(e.validate(1, t2));
}

TEST(LeaseElectorFenceTest, RevokeOfANonHolderIsANoOp) {
  LeaseElector e = make_elector(1000000);
  std::uint64_t t1 = 0;
  ASSERT_TRUE(e.try_lead(1, &t1));
  const std::uint64_t fence_before = e.fence();
  e.revoke(2);  // tid 2 holds nothing
  EXPECT_EQ(e.owner(), 1u);
  EXPECT_EQ(e.fence(), fence_before);
  EXPECT_TRUE(e.validate(1, t1));
}

// A leased read-modify-write of one cell, replayed by hand on the
// synthetic clock: read the count, then write it plus one under a guard
// that validates the lease once the cell is held. A leader descheduled
// between its read and its write must not overwrite its successor's
// increment.
TEST(LeaseElectorFenceTest, GuardedWriteRefusesAFormerLeader) {
  LeaseElector e = make_elector(10000);
  RtAbortableReg<std::int64_t> cell(0);
  const auto lease = [&e](std::uint32_t tid, std::uint64_t token) {
    return [&e, tid, token] { return e.validate(tid, token); };
  };

  // Thread 1 leads and reads the count, then sleeps through its term.
  std::uint64_t t1 = 0;
  ASSERT_TRUE(e.try_lead(1, &t1));
  const std::optional<std::int64_t> seen1 = cell.read();
  ASSERT_TRUE(seen1.has_value());
  g_fake_now.fetch_add(50000);

  // Thread 2 takes the lease over and increments.
  std::uint64_t t2 = 0;
  ASSERT_TRUE(e.try_lead(2, &t2));
  const std::optional<std::int64_t> seen2 = cell.read();
  ASSERT_TRUE(seen2.has_value());
  ASSERT_EQ(cell.write_if(*seen2 + 1, lease(2, t2)), GuardedWrite::Written);
  e.release(2);

  // Thread 1 wakes up holding a count from before thread 2's increment.
  // Unguarded, its write would erase that increment; the guard refuses.
  EXPECT_EQ(cell.write_if(*seen1 + 1, lease(1, t1)), GuardedWrite::Refused);
  EXPECT_EQ(cell.read(), 1);

  // Re-elected, it re-reads and lands its increment on top.
  std::uint64_t t1b = 0;
  ASSERT_TRUE(e.try_lead(1, &t1b));
  const std::optional<std::int64_t> again = cell.read();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(cell.write_if(*again + 1, lease(1, t1b)), GuardedWrite::Written);
  EXPECT_EQ(cell.read(), 2);  // both increments, each exactly once
}

// -- the adaptive calibrator -------------------------------------------------

TEST(RtLeaseCalibratorTest, ConvergesToTheObservedLatency) {
  LeaseCalibrator c(LeaseCalibrator::Options{}, /*initial_latency_ns=*/10000);
  for (int i = 0; i < 200; ++i) c.observe(1000);
  // EWMA with alpha 0.125 converges geometrically; 200 samples is
  // plenty for +-1 ns.
  EXPECT_NEAR(static_cast<double>(c.ewma_ns()), 1000.0, 2.0);
  EXPECT_EQ(c.samples(), 200u);
  // term = 16 * ewma, above the 2 us floor here.
  EXPECT_NEAR(static_cast<double>(c.term_ns()), 16000.0, 64.0);
}

TEST(RtLeaseCalibratorTest, TermClampsToFloorAndCeil) {
  LeaseCalibrator c;
  for (int i = 0; i < 300; ++i) c.observe(1);  // 16 * 1 ns << floor
  EXPECT_EQ(c.term_ns(), c.options().floor_ns);
  for (int i = 0; i < 300; ++i) c.observe(100000000);  // 100 ms >> ceil
  EXPECT_EQ(c.term_ns(), c.options().ceil_ns);
}

TEST(RtLeaseCalibratorTest, ElectorFollowsTheCalibratedTerm) {
  LeaseCalibrator c(LeaseCalibrator::Options{}, /*initial_latency_ns=*/1000);
  LeaseElector e = make_elector(999999999);
  e.set_calibrator(&c);
  EXPECT_EQ(e.current_term_ns(), c.term_ns());
  ASSERT_TRUE(e.try_lead(1));
  // The granted lease used the calibrated term (16 us), not the fixed
  // ~1 s constructor term: it must lapse right after 16 us.
  g_fake_now.store(c.term_ns() + 1000);
  EXPECT_EQ(e.owner(), LeaseElector::kNoOwner);
  // Detaching restores the (clamped) constructor term.
  e.set_calibrator(nullptr);
  EXPECT_EQ(e.current_term_ns(), 999999999u);
}

}  // namespace
}  // namespace tbwf::rt
