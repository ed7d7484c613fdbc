// RtFaultPlan: a declarative, seed-replayable timeline of real-thread
// faults -- the rt twin of sim::FaultPlan.
//
// The simulator injects faults at exact global steps; real threads have
// no global step, so rt faults anchor on wall-clock offsets from the
// supervisor's run origin and fire at the worker's next cooperative
// fault point (RtWorkerContext::fault_point). Three fault kinds:
//
//   - Kill{tid, at_ns, restart_after_ns}: the worker thread dies at its
//     first fault point past at_ns (mid-operation if the workload puts
//     fault points inside its operations); if restart_after_ns > 0 the
//     supervisor revives it that much later with a fresh incarnation --
//     local state lost, shared objects keep their values, mirroring
//     World::restart;
//   - Stall{tid, at_ns, duration_ns}: the worker sleeps through the
//     window, destroying its timeliness exactly there (the rt analogue
//     of a StutterPhase);
//   - Storm{from_ns, to_ns, rate}: every RtAbortableReg attached to the
//     supervisor's RtAbortInjector aborts operations with probability
//     `rate` inside the window (the rt analogue of an AbortStorm);
//   - RegFault{kind, from_ns, to_ns, rate}: a degraded-register window
//     on the attached cells -- jams (every op aborts, solo included,
//     possibly forever), silent drops, stale serves -- the rt analogue
//     of a sim LinkFaultEvent. A jam that covers the stable suffix
//     makes the run unjudgeable for completions: check_rt_conformance
//     then awards no guarantee instead of a wait-free verdict the
//     jammed medium never earned.
//
// generate() draws a random but deterministic plan from a seed; a red
// sweep case replays from the seed alone (the *plan* is exact; the
// thread interleaving is whatever the OS does, which is the point of
// the rt harness). Plans keep a quiet tail so the conformance checker
// has a stable suffix to judge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/membership.hpp"
#include "rt/rt_clock.hpp"
#include "rt/rt_registers.hpp"

namespace tbwf::rt {

/// Thrown by RtWorkerContext::fault_point when a Kill fires; the
/// supervisor's thread wrapper catches it and marks the worker dead.
/// Workloads must let it propagate (catch nothing, or rethrow).
struct WorkerKilled {
  std::uint32_t tid = 0;
};

struct RtKill {
  std::uint32_t tid = 0;
  std::uint64_t at_ns = 0;
  std::uint64_t restart_after_ns = 0;  ///< 0 = never restarted
};

struct RtStall {
  std::uint32_t tid = 0;
  std::uint64_t at_ns = 0;
  std::uint64_t duration_ns = 0;
};

struct RtStorm {
  std::uint64_t from_ns = 0;
  std::uint64_t to_ns = 0;
  std::uint32_t rate_millionths = 1000000;
};

/// A degraded-register window on every attached cell; to_ns ==
/// RtAbortInjector::kForeverNs never closes.
struct RtRegFaultEvent {
  registers::RegFaultKind kind = registers::RegFaultKind::Jam;
  std::uint64_t from_ns = 0;
  std::uint64_t to_ns = 0;
  std::uint32_t rate_millionths = 1000000;
};

class RtFaultPlan {
 public:
  RtFaultPlan() = default;
  explicit RtFaultPlan(std::uint64_t seed) : seed_(seed) {}

  // -- builders ---------------------------------------------------------------
  RtFaultPlan& kill(std::uint32_t tid, std::uint64_t at_ns,
                    std::uint64_t restart_after_ns = 0);
  RtFaultPlan& stall(std::uint32_t tid, std::uint64_t at_ns,
                     std::uint64_t duration_ns);
  RtFaultPlan& storm(std::uint64_t from_ns, std::uint64_t to_ns,
                     std::uint32_t rate_millionths);
  RtFaultPlan& reg_fault(registers::RegFaultKind kind, std::uint64_t from_ns,
                         std::uint64_t to_ns,
                         std::uint32_t rate_millionths = 1000000);
  /// Membership events (epoch-based reconfiguration): each bumps the
  /// view epoch at `at_ns` (fired from the supervisor's monitor loop
  /// through RtSupervisorOptions::on_membership).
  RtFaultPlan& join(std::uint32_t tid, std::uint64_t at_ns);
  RtFaultPlan& leave(std::uint32_t tid, std::uint64_t at_ns);
  RtFaultPlan& replace(std::uint32_t out, std::uint32_t in,
                       std::uint64_t at_ns);
  /// Clock-fault window on one thread's perceived time (applied by the
  /// supervisor's FaultClock; see rt_clock.hpp for the distortion
  /// semantics). `magnitude` is signed ns for skew/jumps, signed ppm
  /// for drift, ignored for freeze.
  RtFaultPlan& clock_fault(RtClockFaultKind kind, std::uint32_t tid,
                           std::uint64_t from_ns, std::uint64_t to_ns,
                           std::int64_t magnitude);

  // -- random generation --------------------------------------------------------
  struct GenOptions {
    int nthreads = 4;
    /// Events are drawn inside [horizon * 0.05, horizon * (1 - quiet_tail)].
    std::uint64_t horizon_ns = 24000000;  // 24 ms
    /// Last fraction of the horizon kept event-free: the stable tail the
    /// conformance checker asserts the graded guarantees over.
    double quiet_tail = 0.4;
    int max_kills = 2;
    double p_restart = 0.75;  ///< chance a kill is followed by a restart
    int max_stalls = 2;
    std::uint64_t min_stall_ns = 500000;   // 0.5 ms
    std::uint64_t max_stall_ns = 4000000;  // 4 ms
    int max_storms = 1;
    std::uint32_t min_storm_rate_millionths = 300000;
    std::uint32_t max_storm_rate_millionths = 950000;
    /// Unless set, one thread is kept free of permanent kills so the
    /// run always has a survivor.
    bool allow_kill_all = false;
    /// Degraded-register windows, all off by default: plans generated
    /// without them are unchanged draw for draw, so existing seeds
    /// replay byte for byte.
    int max_reg_faults = 0;
    /// Chance a reg fault is a Jam (the rest split evenly over Drop,
    /// Stale and Flake; Torn degrades to Drop on the single-word cell).
    double p_reg_jam = 0.5;
    /// Chance a reg-fault window never closes (kForeverNs). Only jams
    /// are left permanent -- a permanent sub-unity-rate fault would
    /// deny the conformance checker any sound stable suffix.
    double p_reg_permanent = 0.25;
    std::uint64_t min_reg_fault_ns = 1000000;  // 1 ms
    std::uint64_t max_reg_fault_ns = 6000000;  // 6 ms
    /// Membership churn, off by default: plans generated without it are
    /// unchanged draw for draw (membership draws append after every
    /// other family), so existing seeds replay byte for byte. Each
    /// cycle removes `churn_tid` from the view and re-admits it (or,
    /// with p_replace, swaps the seat in one replace event).
    int max_membership_cycles = 0;
    /// Tid the generated churn targets; -1 draws one per cycle.
    int churn_tid = -1;
    /// Chance a cycle is a single replace event instead of leave+join.
    double p_replace = 0.25;
    /// Clock faults, off by default: plans generated without them are
    /// unchanged draw for draw (clock draws append after every other
    /// family), so existing seeds replay byte for byte.
    int max_clock_faults = 0;
    /// Tid whose clock the generated faults distort; -1 draws one per
    /// fault.
    int clock_tid = -1;
    std::uint64_t min_clock_fault_ns = 1000000;  // 1 ms
    std::uint64_t max_clock_fault_ns = 6000000;  // 6 ms
    /// Skew and jump magnitudes (ns) are drawn in this band, the sign
    /// split evenly (jumps fix their sign by kind).
    std::uint64_t min_clock_skew_ns = 200000;   // 0.2 ms
    std::uint64_t max_clock_skew_ns = 4000000;  // 4 ms
    /// Drift rates (ppm) drawn in this band, sign split evenly.
    std::uint64_t min_clock_drift_ppm = 20000;   // 2%
    std::uint64_t max_clock_drift_ppm = 200000;  // 20%
    /// Chance a clock fault never closes. Only Skew and Drift are left
    /// permanent -- a permanent jump is a skew, a permanent freeze
    /// would deny the thread any clock at all.
    double p_clock_permanent = 0.25;
  };

  /// Deterministic: the same (seed, options) always yields the same plan.
  static RtFaultPlan generate(std::uint64_t seed, const GenOptions& options);

  // -- introspection ------------------------------------------------------------
  std::uint64_t seed() const { return seed_; }
  const std::vector<RtKill>& kills() const { return kills_; }
  const std::vector<RtStall>& stalls() const { return stalls_; }
  const std::vector<RtStorm>& storms() const { return storms_; }
  const std::vector<RtRegFaultEvent>& reg_faults() const { return reg_faults_; }
  const std::vector<core::MembershipEvent>& membership() const {
    return membership_;
  }
  const std::vector<RtClockFaultEvent>& clock_faults() const {
    return clock_faults_;
  }
  bool empty() const {
    return kills_.empty() && stalls_.empty() && storms_.empty() &&
           reg_faults_.empty() && membership_.empty() &&
           clock_faults_.empty();
  }

  /// Every event boundary, unsorted: kill and restart, stall, storm,
  /// reg-fault and clock-fault window edges (a permanent window
  /// contributes only its start) and membership events.
  std::vector<std::uint64_t> event_edges() const;

  /// The last event boundary; 0 for an empty plan. Everything after is
  /// the stable tail.
  std::uint64_t last_event_ns() const;

  /// True iff a clock fault on `tid` can distort timestamps inside
  /// [from_ns, to_ns). Windows are extended by their worst-case
  /// distortion reach on both sides: a +3 ms skew window stamps events
  /// up to 3 ms past its close, a freeze stamps them up to its whole
  /// duration before it. Conformance uses this to void timely verdicts
  /// a faulted clock cannot earn (and excuse blame it cannot carry).
  bool clock_faulted_in(std::uint32_t tid, std::uint64_t from_ns,
                        std::uint64_t to_ns) const;

  /// Epoch timeline for a run of nthreads ending at run_end_ns: one
  /// window per view, everyone a member of epoch 0.
  std::vector<core::EpochWindow> epoch_timeline(
      int nthreads, std::uint64_t run_end_ns) const;

  /// True iff tid is in the view the plan leaves in force at the end of
  /// the run (non-members are not graded for progress).
  bool member_at_end(int nthreads, std::uint32_t tid) const;

  /// True iff the plan kills tid without a restart.
  bool killed_at_end(std::uint32_t tid) const;

  /// True iff a Jam reg fault covers all of [from_ns, to_ns): the
  /// attached registers serve nothing there, so no completion guarantee
  /// can be earned or demanded.
  bool jam_covers(std::uint64_t from_ns, std::uint64_t to_ns) const;

  /// The plan's storm windows in RtAbortInjector form.
  std::vector<RtAbortInjector::Window> storm_windows() const;

  /// Every injector window: storms (as Flake) plus reg faults. Arm the
  /// supervisor's injector with this to get the full degraded medium.
  std::vector<RtAbortInjector::Window> fault_windows() const;

  /// Human-readable one-per-line event list (starts with the seed).
  std::string summary() const;

 private:
  std::uint64_t seed_ = 0;
  std::vector<RtKill> kills_;
  std::vector<RtStall> stalls_;
  std::vector<RtStorm> storms_;
  std::vector<RtRegFaultEvent> reg_faults_;
  std::vector<core::MembershipEvent> membership_;
  std::vector<RtClockFaultEvent> clock_faults_;
};

}  // namespace tbwf::rt
