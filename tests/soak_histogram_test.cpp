// LogHistogram unit tests: the HDR-style bucket geometry (exact range,
// contiguity, bounded relative width), conservative quantiles, weighted
// recording and merge algebra the soak harness depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "soak/latency_histogram.hpp"

namespace tbwf::soak {
namespace {

TEST(LogHistogramTest, ExactRangeIsBucketPerValue) {
  for (std::uint64_t v = 0; v <= LogHistogram::kExactMax; ++v) {
    const std::size_t i = LogHistogram::index_of(v);
    EXPECT_EQ(LogHistogram::bucket_lower(i), v);
    EXPECT_EQ(LogHistogram::bucket_upper(i), v);
  }
}

TEST(LogHistogramTest, BucketsAreContiguous) {
  // Every bucket starts exactly where the previous one ends: no gaps,
  // no overlaps, across the exact range and many power-of-two tiers.
  for (std::size_t i = 0; i + 1 < 1500; ++i) {
    EXPECT_EQ(LogHistogram::bucket_upper(i) + 1,
              LogHistogram::bucket_lower(i + 1))
        << "bucket " << i;
  }
}

TEST(LogHistogramTest, IndexRoundTripsAndIsMonotone) {
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 1000; ++v) probes.push_back(v);
  for (int k = 6; k < 63; ++k) {
    const std::uint64_t p = 1ULL << k;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
  }
  std::size_t prev = 0;
  std::uint64_t prev_v = 0;
  for (const std::uint64_t v : probes) {
    const std::size_t i = LogHistogram::index_of(v);
    ASSERT_LT(i, LogHistogram::kBuckets) << "v=" << v;
    EXPECT_LE(LogHistogram::bucket_lower(i), v) << "v=" << v;
    EXPECT_GE(LogHistogram::bucket_upper(i), v) << "v=" << v;
    if (v >= prev_v) {
      EXPECT_GE(i, prev) << "v=" << v;
    }
    prev = i;
    prev_v = v;
  }
}

TEST(LogHistogramTest, RelativeBucketWidthIsBounded) {
  // Above the exact range each bucket's width is at most lower/32:
  // a recorded value is over-reported by < ~3.2% of itself.
  for (std::size_t i = 2 * LogHistogram::kSubBuckets; i < 1500; ++i) {
    const std::uint64_t lower = LogHistogram::bucket_lower(i);
    const std::uint64_t width =
        LogHistogram::bucket_upper(i) - lower + 1;
    EXPECT_LE(width * LogHistogram::kSubBuckets, lower) << "bucket " << i;
  }
}

TEST(LogHistogramTest, EmptyHistogramReportsZeros) {
  const LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p999(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogramTest, QuantilesAreConservativeAndTight) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  for (const double q : {0.50, 0.90, 0.99}) {
    const std::uint64_t exact =
        static_cast<std::uint64_t>(q * 1000.0 + 0.9999999);
    const std::uint64_t reported = h.quantile(q);
    EXPECT_GE(reported, exact) << "q=" << q;         // never under-reports
    EXPECT_LE(reported, exact + exact / 32 + 1) << "q=" << q;
  }
  EXPECT_EQ(h.quantile(0.0), 1u);
  EXPECT_EQ(h.quantile(1.0), 1000u);
}

TEST(LogHistogramTest, QuantileClampsToObservedMax) {
  LogHistogram h;
  h.record(5);
  h.record(1000000);
  // The top bucket's upper bound exceeds 1000000; the quantile must
  // clamp to the exact maximum seen.
  EXPECT_EQ(h.p999(), 1000000u);
  EXPECT_EQ(h.p50(), 5u);
}

TEST(LogHistogramTest, WeightedRecordCountsAsRepeats) {
  LogHistogram a;
  a.record_n(7, 1000);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_EQ(a.p50(), 7u);
  EXPECT_EQ(a.p999(), 7u);
  EXPECT_DOUBLE_EQ(a.mean(), 7.0);

  // record_n(v, n) is equivalent to n record(v) calls.
  LogHistogram b;
  for (int i = 0; i < 1000; ++i) b.record(7);
  EXPECT_EQ(a.p99(), b.p99());
  EXPECT_EQ(a.count(), b.count());

  a.record_n(9, 0);  // zero-weight records are no-ops
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_EQ(a.max(), 7u);
}

TEST(LogHistogramTest, MergeMatchesSingleHistogram) {
  LogHistogram evens, odds, all;
  for (std::uint64_t v = 0; v < 2000; ++v) {
    (v % 2 == 0 ? evens : odds).record(v * 3);
    all.record(v * 3);
  }
  evens.merge(odds);
  EXPECT_EQ(evens.count(), all.count());
  EXPECT_EQ(evens.min(), all.min());
  EXPECT_EQ(evens.max(), all.max());
  EXPECT_DOUBLE_EQ(evens.mean(), all.mean());
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(evens.quantile(q), all.quantile(q)) << "q=" << q;
  }

  LogHistogram empty;
  evens.merge(empty);  // merging an empty histogram changes nothing
  EXPECT_EQ(evens.count(), all.count());
  empty.merge(evens);  // merging INTO an empty one adopts everything
  EXPECT_EQ(empty.p99(), all.p99());
}

}  // namespace
}  // namespace tbwf::soak
