// Real-threads backend: abortable registers over std::atomic.
//
// The simulator (src/sim) is the faithful reproduction vehicle -- it
// controls steps, timeliness and abort adversaries exactly. This rt
// backend exists for the wall-clock benchmarks (E11): it shows the
// practical cost profile on real threads. The QA universal construction,
// its batched engine and the zoo specialists run here as the very
// coroutines the explorer checks (rt_qa.hpp's RtBase policy puts their
// records in these registers); the lease leader stands in for the
// paper's Omega-Delta.
//
// RtAbortableReg implements the abortable-register contract with a
// try-lock cell: an operation that cannot acquire the cell immediately
// was, by construction, concurrent with another operation and aborts;
// an operation that acquires the cell runs alone and succeeds. Solo
// operations therefore never abort, and aborted writes never take
// effect (one of the behaviours the spec allows).
// Memory-order discipline (see docs/MODEL.md, "The rt memory model"):
// every atomic operation in this backend names its order explicitly.
// The orders fall into three documented roles:
//
//   acquire/release  publication edges -- the try-lock cell that guards
//                    value_/prev_value_, and the injector pointer
//                    handoff (arm() data must be visible to fire());
//   relaxed          monotone statistics (draw indices, injected-fault
//                    tallies, heartbeat counters): no reader infers
//                    anything from their ordering, only from their
//                    eventual value, and the supervisor's thread join
//                    provides the final happens-before for exact reads.
//
// Per-thread and per-cell hot counters are cache-line-isolated
// (util/cacheline.hpp) so one thread's relaxed bumps do not invalidate
// another thread's line.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "registers/reg_faults.hpp"
#include "rt/rt_clock.hpp"
#include "util/cacheline.hpp"

namespace tbwf::rt {

/// What an RtAbortInjector window did to the current operation.
enum class RtRegFault : std::uint8_t {
  None,   ///< no window open / rate missed: the cell decides
  Abort,  ///< the operation aborts (jam or flake)
  Drop,   ///< a write reports success but the register keeps its value
  Stale,  ///< a read reports success but returns the previous value
};

/// Fault injector for RtAbortableReg: the rt twin of the simulator's
/// PhasedAbortPolicy storms AND RegisterFaultInjector windows. Each
/// armed wall-clock window carries a registers::RegFaultKind:
///
///   Flake  operations abort with the window's rate, as if a phantom
///          concurrent operation held the cell (the classic storm);
///   Jam    every operation aborts, solo included, rate ignored -- a
///          degraded register, beyond the abortable spec;
///   Drop   a write reports success but never lands;
///   Stale  a read reports success but serves the previous value;
///   Torn   the rt cell is a single word, so a torn write cannot leave
///          a half-updated value -- it degrades to Drop here.
///
/// Flake windows are confined to fault windows that end before the
/// stable suffix the conformance checker judges (solo-never-aborts
/// holds whenever no window is open); a Jam window MAY cover the
/// suffix, in which case check_rt_conformance refuses to award any
/// completion guarantee for it (RtFaultPlan::jam_covers).
///
/// Decisions are drawn from a seeded counter hash, so two runs with the
/// same seed and the same per-register operation order make the same
/// calls. arm() must happen-before any concurrent fire().
class RtAbortInjector {
 public:
  struct Window {
    std::uint64_t from_ns = 0;  ///< relative to the armed origin
    std::uint64_t to_ns = 0;    ///< kForeverNs never closes
    std::uint32_t rate_millionths = 1000000;  ///< firing probability * 1e6
    registers::RegFaultKind kind = registers::RegFaultKind::Flake;
  };

  static constexpr std::uint64_t kForeverNs = ~0ULL;

  RtAbortInjector() = default;

  /// Install fault windows. `origin_ns` anchors the relative window
  /// bounds on the steady clock (pass the supervisor's run origin).
  void arm(std::uint64_t seed, std::uint64_t origin_ns,
           std::vector<Window> windows) {
    seed_ = seed;
    origin_ns_ = origin_ns;
    windows_ = std::move(windows);
  }

  /// What does the first open window that fires do to the current
  /// operation? Jam fires without a draw; everything else consults the
  /// window rate. Windows that cannot touch the operation direction
  /// (Drop/Torn a read, Stale a write) are skipped.
  RtRegFault fire_op(bool is_write) {
    if (windows_.empty()) return RtRegFault::None;
    // Window position is judged on the calling thread's perceived
    // clock (FaultClock::read): a clock-faulted worker sees register
    // fault windows shifted exactly as it sees everything else.
    const std::uint64_t now = FaultClock::read() - origin_ns_;
    for (const auto& w : windows_) {
      if (now < w.from_ns || (w.to_ns != kForeverNs && now >= w.to_ns)) {
        continue;
      }
      switch (w.kind) {
        case registers::RegFaultKind::Jam:
          return note(RtRegFault::Abort, w.kind);
        case registers::RegFaultKind::Drop:
        case registers::RegFaultKind::Torn:
          if (!is_write) continue;
          break;
        case registers::RegFaultKind::Stale:
          if (is_write) continue;
          break;
        case registers::RegFaultKind::Flake:
          break;
      }
      if (!draw(w.rate_millionths)) continue;
      if (w.kind == registers::RegFaultKind::Stale) {
        return note(RtRegFault::Stale, w.kind);
      }
      if (w.kind == registers::RegFaultKind::Flake) {
        return note(RtRegFault::Abort, w.kind);
      }
      return note(RtRegFault::Drop, w.kind);  // Drop, and Torn as Drop
    }
    return RtRegFault::None;
  }

  /// Storm-compat shim: should the operation abort? (Reads: also maps
  /// stale serves to aborts -- only fire_op callers can serve stale.)
  bool fire() { return fire_op(/*is_write=*/false) != RtRegFault::None; }

  std::uint64_t injected() const {
    return injected_->load(std::memory_order_relaxed);
  }
  /// Ground truth per fault kind, for judging detectors against.
  std::uint64_t injected(registers::RegFaultKind kind) const {
    return injected_by_[static_cast<int>(kind)]->load(
        std::memory_order_relaxed);
  }

 private:
  /// SplitMix64 of (seed, draw index): uniform and replayable per seed.
  bool draw(std::uint32_t rate_millionths) {
    std::uint64_t z =
        seed_ + 0x9E3779B97F4A7C15ULL *
                    (draws_->fetch_add(1, std::memory_order_relaxed) + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z % 1000000 < rate_millionths;
  }
  RtRegFault note(RtRegFault fault, registers::RegFaultKind kind) {
    injected_->fetch_add(1, std::memory_order_relaxed);
    injected_by_[static_cast<int>(kind)]->fetch_add(
        1, std::memory_order_relaxed);
    return fault;
  }

  std::uint64_t seed_ = 0;
  std::uint64_t origin_ns_ = 0;
  std::vector<Window> windows_;
  /// All three tallies are relaxed monotone counters: draws_ orders the
  /// seeded hash sequence (any serialization of the fetch_adds is an
  /// acceptable draw order), injected_* are statistics read either
  /// relaxed (approximate, mid-run) or after join (exact). Each lives on
  /// its own cache line: draws_ is hammered by every faulted operation
  /// of every thread, and sharing a line would stall the injector-free
  /// fast path of neighbouring cells.
  util::CachelinePadded<std::atomic<std::uint64_t>> draws_{0};
  util::CachelinePadded<std::atomic<std::uint64_t>> injected_{0};
  util::CachelinePadded<std::atomic<std::uint64_t>>
      injected_by_[registers::kRegFaultKinds] = {};
};

/// What RtAbortableReg::write_if did.
enum class GuardedWrite : std::uint8_t {
  Written,  ///< the guard held and the write went through
  Aborted,  ///< cell busy, flake or jam: nothing ran, no effect
  Refused,  ///< the cell was acquired but the guard said no: no effect
};

/// Cache-line-aligned so registers packed in arrays (one per process,
/// as RtBase gives the QA construction) never share a line: the try-lock CAS of one
/// cell must not steal the line under a neighbouring cell's reader.
/// lock_ and the values it guards deliberately stay TOGETHER on the
/// line -- an operation always touches both, so splitting them would
/// double the line transfers per op.
template <class T>
class alignas(util::kCacheLineSize) RtAbortableReg {
 public:
  explicit RtAbortableReg(T initial)
      : value_(initial), prev_value_(std::move(initial)) {}

  /// Subject this register to injected faults (nullptr detaches).
  /// The injector must outlive the register's last operation.
  void set_injector(RtAbortInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

  /// Returns nullopt iff the read aborted (cell busy, flake or jam).
  /// Inside a Stale window the read succeeds but serves the value the
  /// register held before its last successful write.
  std::optional<T> read() {
    const RtRegFault fault = consult(/*is_write=*/false);
    if (fault == RtRegFault::Abort) return std::nullopt;
    if (!try_acquire()) return std::nullopt;
    // prev_value_ is only touched under the cell lock: stale serves stay
    // data-race-free even though they bypass the current value.
    T copy = fault == RtRegFault::Stale ? prev_value_ : value_;
    release();
    return copy;
  }

  /// read() into the caller's `slot`: returns false iff the read aborted,
  /// and then leaves `slot` untouched. A cell whose value already equals
  /// `slot` is released without copying, so an unchanged record costs no
  /// reference-count update. A changed value is copied under the cell
  /// and assigned after release(): the value it displaces from `slot`
  /// dies outside the critical section, as in write(T&&).
  bool read_into(T& slot) {
    const RtRegFault fault = consult(/*is_write=*/false);
    if (fault == RtRegFault::Abort) return false;
    if (!try_acquire()) return false;
    const T& src = fault == RtRegFault::Stale ? prev_value_ : value_;
    if (src == slot) {
      release();
      return true;
    }
    T copy = src;
    release();
    slot = std::move(copy);
    return true;
  }

  /// Returns false iff the write aborted (cell busy, flake or jam; no
  /// effect). Inside a Drop window the write reports true but the
  /// register keeps its value -- the caller has no way to notice.
  /// `v` is copied into the storage of the value it displaces, so a
  /// container that fits is rewritten without allocating.
  bool write(const T& v) {
    return write_if(v, [] { return true; }) == GuardedWrite::Written;
  }

  /// write(v) that goes through only if `guard()` holds once the cell is
  /// acquired. No other operation on this register runs between the
  /// guard and the write, so a guard that checks a lease
  /// (LeaseElector::validate) cannot pass for a former holder once its
  /// successor has read or written the register: the successor took the
  /// lease before that operation, and the cell's acquire makes the
  /// takeover visible to the guard.
  template <class Guard>
  GuardedWrite write_if(const T& v, Guard guard) {
    return commit(guard, [&](T& displaced) { displaced = v; });
  }

  /// Sink form of write(): `v` is moved into the cell, and the value it
  /// displaces is moved out and destroyed only after release(). A
  /// destructor that frees memory -- the last reference to a shared
  /// state, say -- then never runs inside the critical section.
  bool write(T&& v) {
    T incoming = std::move(v);
    return commit([] { return true; },
                  [&](T& displaced) {
                    using std::swap;
                    swap(displaced, incoming);
                  }) == GuardedWrite::Written;
  }

 private:
  /// One write: if `guard()` holds under the cell, current ->
  /// prev_value_, and `fill` turns the displaced previous value (now in
  /// value_) into the new one, all under the cell.
  template <class Guard, class Fill>
  GuardedWrite commit(Guard guard, Fill fill) {
    const RtRegFault fault = consult(/*is_write=*/true);
    if (fault == RtRegFault::Abort) return GuardedWrite::Aborted;
    if (!try_acquire()) return GuardedWrite::Aborted;
    if (!guard()) {
      release();
      return GuardedWrite::Refused;
    }
    if (fault != RtRegFault::Drop) {
      using std::swap;
      swap(prev_value_, value_);
      fill(value_);
    }
    release();
    return GuardedWrite::Written;
  }
  RtRegFault consult(bool is_write) {
    // acquire pairs with set_injector's release: observing the pointer
    // implies observing the windows armed before it was attached.
    RtAbortInjector* inj = injector_.load(std::memory_order_acquire);
    return inj != nullptr ? inj->fire_op(is_write) : RtRegFault::None;
  }
  bool try_acquire() {
    // acquire on success pairs with release(): the winner sees every
    // value_/prev_value_ write of the previous holder. Failure needs no
    // ordering -- the op aborts without looking at the guarded data.
    std::uint32_t expected = 0;
    return lock_.compare_exchange_strong(expected, 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }
  // release publishes the critical section to the next try_acquire.
  void release() { lock_.store(0, std::memory_order_release); }

  std::atomic<std::uint32_t> lock_{0};
  std::atomic<RtAbortInjector*> injector_{nullptr};
  T value_;
  T prev_value_;
};

/// Single-writer heartbeat slot: the writer publishes a monotonically
/// increasing counter; readers detect activity and staleness. Trivial
/// over std::atomic, provided for symmetry with the simulator's
/// monitored/monitoring split.
class RtHeartbeat {
 public:
  /// relaxed: the counter is a pure monotone activity signal. A reader
  /// learns "the writer took a step" from the VALUE advancing; no other
  /// data is published through it, so no release edge is needed, and
  /// staleness only delays (never fakes) an activity judgment.
  void beat() { counter_->fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return counter_->load(std::memory_order_relaxed);
  }

 private:
  /// Own line: heartbeats placed in per-process arrays are each bumped
  /// at step rate by their owner; sharing a line would make every beat
  /// a cross-core invalidation for the monitors polling the others.
  util::CachelinePadded<std::atomic<std::uint64_t>> counter_{0};
};

}  // namespace tbwf::rt
