// The rt QA construction shares its states by pointer: a state is built
// once, by the proposer that decides it, and every record, read buffer
// and cache that holds it points at the same immutable object. These
// tests pin the three consequences on real threads:
//
//   * bounded: the number of live states never exceeds what the
//     holders can point at, and drops to zero with the object (no
//     reference cycle keeps one alive);
//   * immutable: a state captured through local_decided() or behind a
//     frontier_snapshot() stays value-equal while others keep deciding;
//   * vector results survive the pointer publication: RtTbwfObject over
//     the snapshot type returns exact, monotone views.
//
// Suites are named Rt* so the TSan job runs them; the vector-result
// test doubles as the litmus for the pointer-publication edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "qa/sequential_type.hpp"
#include "rt/rt_qa.hpp"
#include "rt/rt_tbwf.hpp"
#include "rt_counted_state.hpp"
#include "zoo/zoo_types.hpp"

namespace tbwf::rt {
namespace {

using namespace census;

using CountedQa = RtQaUniversal<CountedCounter>;

constexpr int kThreads = 3;
constexpr int kOpsPerThread = 20000;

TEST(RtQaStateSharing, TbwfObjectLiveStatesBoundedAndFreed) {
  reset_census();
  {
    RtTbwfObject<CountedCounter> obj(kThreads, CountedState{},
                                     std::chrono::microseconds(30));
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&obj, t] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          (void)obj.invoke(static_cast<std::uint32_t>(t),
                           CountedCounter::Op{1});
        }
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(obj.qa().peek_frontier().state.value,
              kThreads * kOpsPerThread);
  }
  const std::int64_t peak = g_peak_states.load(std::memory_order_relaxed);
  EXPECT_LE(peak, live_state_bound(kThreads));
  RecordProperty("peak_live_states", std::to_string(peak));
  EXPECT_EQ(g_live_states.load(std::memory_order_relaxed), 0)
      << "a state outlived its object";
}

TEST(RtQaStateSharing, ContendedUniversalLiveStatesBoundedAndFreed) {
  reset_census();
  std::atomic<std::int64_t> applied{0};
  {
    CountedQa obj(kThreads, CountedState{});
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&obj, &applied, t] {
        const auto tid = static_cast<std::uint32_t>(t);
        for (int i = 0; i < kOpsPerThread; ++i) {
          // The Figure 8 automaton without a leader: chase bottom
          // through query until the fate settles.
          auto r = obj.invoke(tid, CountedCounter::Op{1});
          while (r.bottom()) {
            r = obj.query(tid);
            if (r.bottom()) std::this_thread::yield();
          }
          if (r.ok()) applied.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(obj.frontier_snapshot().state.value, applied.load());
  }
  EXPECT_GT(applied.load(), 0);
  const std::int64_t peak = g_peak_states.load(std::memory_order_relaxed);
  EXPECT_LE(peak, live_state_bound(kThreads));
  RecordProperty("peak_live_states", std::to_string(peak));
  EXPECT_EQ(g_live_states.load(std::memory_order_relaxed), 0)
      << "a state outlived its object";
}

// -- immutability ---------------------------------------------------------

bool same_state(const CountedQa::StateRec& a, const CountedQa::StateRec& b) {
  return a.seq == b.seq && a.state.value == b.state.value &&
         a.last_uid == b.last_uid && a.last_result == b.last_result;
}

void run_phase(CountedQa& obj, int ops,
               std::vector<std::shared_ptr<const CountedQa::StateRec>>*
                   captured = nullptr,
               std::vector<CountedQa::StateRec>* copies = nullptr) {
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const auto tid = static_cast<std::uint32_t>(t);
      for (int i = 0; i < ops; ++i) {
        auto r = obj.invoke(tid, CountedCounter::Op{1});
        while (r.bottom()) {
          r = obj.query(tid);
          if (r.bottom()) std::this_thread::yield();
        }
        // Thread 0 pins what it has seen decided, pointer and value,
        // while the others keep deciding past it.
        if (t == 0 && captured != nullptr && i % 500 == 0) {
          captured->push_back(obj.local_decided(tid));
          copies->push_back(*captured->back());
        }
      }
    });
  }
  for (auto& th : pool) th.join();
}

TEST(RtQaStateSharing, CapturedStatesStayValueEqual) {
  CountedQa obj(kThreads, CountedState{});
  std::vector<std::shared_ptr<const CountedQa::StateRec>> captured;
  std::vector<CountedQa::StateRec> copies;
  run_phase(obj, 3000, &captured, &copies);

  // Quiescent: the snapshot is the highest decided state, and the
  // thread that decided it holds that very state as its local_decided.
  const CountedQa::StateRec snap = obj.frontier_snapshot();
  std::shared_ptr<const CountedQa::StateRec> behind_snapshot;
  for (int t = 0; t < kThreads; ++t) {
    const auto& d = obj.local_decided(static_cast<std::uint32_t>(t));
    if (d->seq == snap.seq) behind_snapshot = d;
  }
  ASSERT_NE(behind_snapshot, nullptr);
  ASSERT_TRUE(same_state(*behind_snapshot, snap));

  run_phase(obj, 3000);
  EXPECT_GT(obj.frontier_snapshot().seq, snap.seq) << "nobody decided";

  EXPECT_TRUE(same_state(*behind_snapshot, snap))
      << "the state behind a snapshot changed after it was published";
  ASSERT_EQ(captured.size(), copies.size());
  ASSERT_FALSE(captured.empty());
  for (std::size_t i = 0; i < captured.size(); ++i) {
    EXPECT_TRUE(same_state(*captured[i], copies[i]))
        << "captured state " << i << " (seq " << copies[i].seq
        << ") changed";
  }
}

// -- RtTbwfObject with a vector Result ------------------------------------

using zoo::SnapshotType;

/// Seeded 50/50 update/scan stream (SplitMix64 of seed, thread, index).
bool is_update(std::uint64_t seed, std::uint32_t tid, std::uint64_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (k * 8 + tid + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return ((z ^ (z >> 31)) & 1) != 0;
}

TEST(RtTbwfVectorResult, SnapshotMixIsExactAndMonotone) {
  constexpr int kSegments = 8;  // segments kThreads.. stay untouched
  constexpr std::uint64_t kOps = 4000;
  constexpr std::uint64_t kSeed = 17;
  RtTbwfObject<SnapshotType> obj(kThreads, SnapshotType::initial(kSegments),
                                 std::chrono::microseconds(30));
  // Writer w's update k writes segment w := k + 1. started[w] is the
  // newest value w may have written, completed[w] the newest it has
  // seen return: every scan must fall between the two.
  std::vector<std::atomic<std::int64_t>> started(kThreads);
  std::vector<std::atomic<std::int64_t>> completed(kThreads);
  std::vector<std::int64_t> last_update(kThreads, 0);
  std::atomic<std::uint64_t> bad_scans{0};
  std::atomic<std::uint64_t> bad_results{0};

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const auto tid = static_cast<std::uint32_t>(t);
      std::vector<std::int64_t> seen(kSegments, 0);
      for (std::uint64_t k = 0; k < kOps; ++k) {
        if (is_update(kSeed, tid, k)) {
          const auto v = static_cast<std::int64_t>(k + 1);
          started[t].store(v, std::memory_order_release);
          const auto r = obj.invoke(tid, SnapshotType::update(t, v));
          if (!r.empty()) bad_results.fetch_add(1, std::memory_order_relaxed);
          completed[t].store(v, std::memory_order_release);
          last_update[t] = v;
          continue;
        }
        std::vector<std::int64_t> lo(kThreads);
        for (int w = 0; w < kThreads; ++w) {
          lo[w] = completed[w].load(std::memory_order_acquire);
        }
        const auto view = obj.invoke(tid, SnapshotType::scan());
        if (view.size() != static_cast<std::size_t>(kSegments)) {
          bad_results.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        bool ok = true;
        for (int w = 0; w < kThreads; ++w) {
          const std::int64_t hi = started[w].load(std::memory_order_acquire);
          ok = ok && view[w] >= lo[w] && view[w] <= hi && view[w] >= seen[w];
        }
        ok = ok && view[t] == last_update[t];  // own writes are exact
        for (int s = kThreads; s < kSegments; ++s) ok = ok && view[s] == 0;
        if (!ok) bad_scans.fetch_add(1, std::memory_order_relaxed);
        std::copy(view.begin(), view.end(), seen.begin());
      }
    });
  }
  for (auto& th : pool) th.join();

  EXPECT_EQ(bad_results.load(), 0u) << "an op got the other kind's result";
  EXPECT_EQ(bad_scans.load(), 0u)
      << "a scan missed a completed update, saw an unstarted one, went "
         "backwards, or saw an untouched segment move";
  const auto final_view = obj.invoke(0, SnapshotType::scan());
  ASSERT_EQ(final_view.size(), static_cast<std::size_t>(kSegments));
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(final_view[w], last_update[w]) << "writer " << w;
  }
  for (int s = kThreads; s < kSegments; ++s) EXPECT_EQ(final_view[s], 0);
}

}  // namespace
}  // namespace tbwf::rt
