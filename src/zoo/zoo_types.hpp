// Sequential specification types for the data-structure zoo.
//
// Each zoo object runs as a QA-universal instantiation (these types
// plugged into QaUniversal / BatchedQaUniversal); the snapshot and the
// ledger also exist as a handwritten register-based specialist
// (snapshot.hpp, ledger.hpp). The types below are the *common spec*:
// the universal twin executes them directly, the Wing-Gong oracle
// replays candidate linearizations of every twin against them, and the
// differential cross-check folds Ok results of both twins through them
// to compare final abstract states.
//
// States are deliberately encoded in hashable containers
// (vector/deque of int64) so DefaultStateHash and the harness
// fingerprint folds cover them without bespoke overloads.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "qa/sequential_type.hpp"

namespace tbwf::zoo {

/// Atomic snapshot over `m` single-writer segments. State is the
/// segment vector (sized by the initial state -- use
/// SnapshotType::initial(n)). Update writes one segment and returns
/// {}; Scan returns the whole vector. The multi-value (vector) Result
/// is what exercises the oracle's non-scalar fate handling.
struct SnapshotType {
  using State = std::vector<std::int64_t>;
  struct Op {
    bool is_update = false;
    int index = 0;
    std::int64_t value = 0;
  };
  using Result = std::vector<std::int64_t>;  ///< scan: the view; update: {}

  static Result apply(State& state, const Op& op) {
    if (op.is_update) {
      if (op.index >= 0 && op.index < static_cast<int>(state.size())) {
        state[static_cast<std::size_t>(op.index)] = op.value;
      }
      return {};
    }
    return state;
  }

  static State initial(int segments) {
    return State(static_cast<std::size_t>(segments), 0);
  }
  static Op update(int index, std::int64_t value) {
    return Op{true, index, value};
  }
  static Op scan() { return Op{false, 0, 0}; }
};
static_assert(qa::Sequential<SnapshotType>);

/// Bounded FIFO queue of capacity Cap. Enqueue on a full queue returns
/// kFull (the op is a no-op); dequeue on an empty queue returns kEmpty.
/// A successful enqueue echoes the enqueued value.
template <int Cap>
struct BoundedQueueOf {
  static_assert(Cap >= 1);
  static constexpr int kCapacity = Cap;
  static constexpr std::int64_t kEmpty = -1;
  static constexpr std::int64_t kFull = -2;

  using State = std::deque<std::int64_t>;
  struct Op {
    bool is_enqueue = false;
    std::int64_t value = 0;
  };
  using Result = std::int64_t;

  static Result apply(State& state, const Op& op) {
    if (op.is_enqueue) {
      if (static_cast<int>(state.size()) >= Cap) return kFull;
      state.push_back(op.value);
      return op.value;
    }
    if (state.empty()) return kEmpty;
    const Result front = state.front();
    state.pop_front();
    return front;
  }

  static Op enqueue(std::int64_t value) { return Op{true, value}; }
  static Op dequeue() { return Op{false, 0}; }
};
using BoundedQueue4 = BoundedQueueOf<4>;
static_assert(qa::Sequential<BoundedQueue4>);

/// Append-ordered ledger/map: the state IS the append log, flattened
/// as [k0, v0, k1, v1, ...]. Put appends a (key, value) pair and
/// echoes the value; Get scans from the tail and returns the latest
/// binding (kAbsent if the key was never put). Keeping the log -- not
/// a folded map -- as the state means two linearizations that bind
/// the same final values in different orders still hash differently,
/// which is exactly the discrimination the oracle needs.
struct LedgerType {
  static constexpr std::int64_t kAbsent = -1;

  using State = std::vector<std::int64_t>;  ///< flattened (key, value) pairs
  struct Op {
    bool is_put = false;
    std::int64_t key = 0;
    std::int64_t value = 0;
  };
  using Result = std::int64_t;

  static Result apply(State& state, const Op& op) {
    if (op.is_put) {
      state.push_back(op.key);
      state.push_back(op.value);
      return op.value;
    }
    for (std::size_t i = state.size(); i >= 2; i -= 2) {
      if (state[i - 2] == op.key) return state[i - 1];
    }
    return kAbsent;
  }

  static Op put(std::int64_t key, std::int64_t value) {
    return Op{true, key, value};
  }
  static Op get(std::int64_t key) { return Op{false, key, 0}; }
};
static_assert(qa::Sequential<LedgerType>);

}  // namespace tbwf::zoo
