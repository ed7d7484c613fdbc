// A test-only Sequential whose State counts its live instances, and the
// most states an rt QA construction can keep alive at once. The rt
// tests that check "no unbounded garbage" assert against this bound.
#pragma once

#include <atomic>
#include <cstdint>

#include "qa/sequential_type.hpp"

namespace tbwf::rt::census {

// -- a counter whose State counts its live instances ---------------------

inline std::atomic<std::int64_t> g_live_states{0};
inline std::atomic<std::int64_t> g_peak_states{0};

struct CountedState {
  std::int64_t value = 0;

  CountedState() { enter(); }
  CountedState(const CountedState& other) : value(other.value) { enter(); }
  CountedState& operator=(const CountedState& other) = default;
  ~CountedState() { g_live_states.fetch_sub(1, std::memory_order_relaxed); }

  static void enter() {
    const std::int64_t now =
        g_live_states.fetch_add(1, std::memory_order_relaxed) + 1;
    std::int64_t peak = g_peak_states.load(std::memory_order_relaxed);
    while (now > peak && !g_peak_states.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
};

struct CountedCounter {
  using State = CountedState;
  struct Op {
    std::int64_t delta = 0;
  };
  using Result = std::int64_t;

  static Result apply(State& state, const Op& op) {
    const Result before = state.value;
    state.value += op.delta;
    return before;
  }
};
static_assert(qa::Sequential<CountedCounter>);

/// Most states that can be alive at once in an n-thread
/// rt::RtQaUniversal, counted holder by holder (a state no holder points
/// at is freed):
///   * each register: value_ and prev_value_, two states per record;
///   * each thread: its own record `mine` (2), local_decided (1), the
///     read buffer (2 per record), one value in flight (1), a read's
///     returned record before it lands in the buffer (2), and a
///     publish's displaced record until it dies after release (2).
inline std::int64_t live_state_bound(int n) {
  const std::int64_t per_register = 2 * 2;
  const std::int64_t per_thread = 2 + 1 + 2 * n + 1 + 2 + 2;
  return n * per_register + n * per_thread;
}

inline void reset_census() {
  g_live_states.store(0, std::memory_order_relaxed);
  g_peak_states.store(0, std::memory_order_relaxed);
}

}  // namespace tbwf::rt::census
