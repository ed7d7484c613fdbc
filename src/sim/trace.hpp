// Run trace: which process took each global step, plus crash times.
//
// The trace is the ground truth for the paper's timeliness definitions
// (Definitions 1-2): process p is timely with bound i iff every window of
// i consecutive steps contains a step of p. For a finite run we report
// the smallest such empirical bound; experiment harnesses compare it
// against the bound the schedule was asked to guarantee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/types.hpp"

namespace tbwf::sim {

/// Verdict about one process's timeliness over a finite trace.
struct TimelinessVerdict {
  bool crashed = false;
  Step steps_taken = 0;
  /// Smallest i such that every window of i consecutive global steps in
  /// the run contains a step of p. Infinite (max uint64) if p took no
  /// steps at all.
  Step empirical_bound = 0;

  /// Timely relative to a target bound (and not crashed).
  bool timely_with_bound(Step bound) const {
    return !crashed && steps_taken > 0 && empirical_bound <= bound;
  }
};

/// One crash or restart, in the order it was applied to the world. The
/// ordered log is the ground truth the chaos conformance checker (and
/// the apply-order regression tests) read back.
struct FaultEvent {
  Step at = 0;
  Pid pid = kNoPid;
  bool restart = false;  ///< false = crash, true = restart
};

class Trace {
 public:
  explicit Trace(int n)
      : n_(n), faults_(static_cast<std::size_t>(n)) {
    steps_.reserve(kInitialSteps);
  }

  void record_step(Pid p) { steps_.push_back(static_cast<std::uint16_t>(p)); }
  void record_crash(Pid p) {
    faults_[p].crashed_at = now();
    ++faults_[p].crashes;
    fault_log_.push_back(FaultEvent{now(), p, /*restart=*/false});
  }
  void record_restart(Pid p) {
    faults_[p].crashed_at = kNever;
    ++faults_[p].restarts;
    fault_log_.push_back(FaultEvent{now(), p, /*restart=*/true});
  }

  Step now() const { return static_cast<Step>(steps_.size()); }
  int n() const { return n_; }
  bool empty() const { return steps_.empty(); }

  Pid step_owner(Step s) const { return static_cast<Pid>(steps_[s]); }

  /// Currently crashed (i.e. crashed and not subsequently restarted).
  bool crashed(Pid p) const { return faults_[p].crashed_at != kNever; }
  /// Time of the latest crash p has not recovered from; kNever if alive.
  Step crash_time(Pid p) const { return faults_[p].crashed_at; }

  std::uint64_t crash_count(Pid p) const { return faults_[p].crashes; }
  std::uint64_t restart_count(Pid p) const { return faults_[p].restarts; }

  /// Every crash/restart in application order.
  const std::vector<FaultEvent>& fault_log() const { return fault_log_; }

  /// Number of steps taken by p over the whole run.
  Step steps_of(Pid p) const;

  /// Number of steps taken by p in the half-open window [from, to).
  Step steps_of_in(Pid p, Step from, Step to) const;

  /// Maximum number of consecutive steps *not* taken by p, including the
  /// prefix before p's first step and the suffix after p's last step.
  Step max_gap(Pid p) const;

  /// max_gap restricted to the half-open window [from, to): the longest
  /// run of non-p steps inside the window, counting the stretch from
  /// `from` to p's first step and from p's last step to `to`. If p takes
  /// no step in the window this is the window length (not kNever);
  /// callers distinguish "starved" from "absent" via steps_of_in.
  Step max_gap_in(Pid p, Step from, Step to) const;

  TimelinessVerdict timeliness(Pid p) const;

  /// Processes whose empirical bound is <= `bound` and did not crash.
  std::vector<Pid> timely_set(Step bound) const;

  /// Order-sensitive 64-bit digest of the whole trace: every step owner
  /// in sequence plus the fault log. Two runs are schedule-identical iff
  /// their digests match (up to hash collision); the replay-determinism
  /// regression tests pin seeded runs to this.
  std::uint64_t digest() const;

  static constexpr Step kNever = std::numeric_limits<Step>::max();
  /// Step-log room reserved up front: a short run (an explored schedule
  /// takes about 46 steps) then never regrows the log.
  static constexpr std::size_t kInitialSteps = 64;

 private:
  int n_;
  std::vector<std::uint16_t> steps_;
  /// One process's crash state and fault tallies.
  struct ProcessFaults {
    Step crashed_at = kNever;  ///< latest unrecovered crash; kNever if alive
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
  };
  std::vector<ProcessFaults> faults_;
  std::vector<FaultEvent> fault_log_;
};

}  // namespace tbwf::sim
