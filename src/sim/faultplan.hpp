// FaultPlan: a declarative, seed-replayable timeline of faults for one
// run -- the chaos harness's input.
//
// A plan is a set of events over model time:
//   - Crash{p, at}:    p crashes at step `at` (pending op settled there);
//   - Restart{p, at}:  p revives with fresh root sub-tasks (shared
//                      registers keep their values);
//   - StutterPhase{p, from, to, period}: p is untimely inside the
//                      window -- one step per `period` at most -- then
//                      timely again (applied by ChaosSchedule);
//   - AbortStorm{group, from, to, rate}: every PhasedAbortPolicy armed
//                      for `group` aborts contended operations with
//                      probability `rate` inside the window.
//
// Plans map onto the paper's run definitions: a crash is Definition 2's
// crashed process; a stutter makes the realized timeliness bound
// (Definition 1) exceed `period` for the window, i.e. the process drops
// out of the timely set exactly there; a restart creates the
// "subsequently timely" process whose graded guarantee the conformance
// checker re-derives. generate() draws a random but deterministic plan
// from a seed, so any failing sweep case replays from its seed alone.
//
// Degraded links: a LinkFault degrades the channel registers of one
// SWSR link (MsgRegister[p,q] and/or the HbRegister pair) beyond the
// abortable-register spec -- jams, silent drops, stale serves, torn
// writes (registers/reg_faults.hpp). Faults are armed on a
// RegisterFaultInjector; the conformance checker uses the plan's
// link_jam_dead/channel_degraded views to refuse wait-free verdicts a
// jammed medium cannot earn.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/membership.hpp"
#include "registers/reg_faults.hpp"
#include "sim/chaos_schedule.hpp"
#include "sim/types.hpp"

namespace tbwf::registers {
class PhasedAbortPolicy;
}  // namespace tbwf::registers

namespace tbwf::sim {

class World;

struct CrashEvent {
  Pid pid = kNoPid;
  Step at = 0;
};

struct RestartEvent {
  Pid pid = kNoPid;
  Step at = 0;
};

/// Escalated aborts on the registers of one policy group ("" = every
/// armed policy) inside [from, to).
struct AbortStorm {
  std::string group;
  Step from = 0;
  Step to = 0;
  double rate = 1.0;
  double p_effect = 0.5;
};

/// Which channel registers of the SWSR link writer -> reader a
/// LinkFault covers: the Figure 4 message register, one or both of the
/// Figure 5 heartbeat pair, or all three.
enum class LinkPart : std::uint8_t { All, Msg, Hb1, Hb2 };

const char* to_string(LinkPart part);

/// A degraded-medium fault on the channel registers of one link inside
/// [from, to); to == registers::kFaultForever never closes.
struct LinkFaultEvent {
  Pid writer = kNoPid;
  Pid reader = kNoPid;
  LinkPart part = LinkPart::All;
  registers::RegFaultKind kind = registers::RegFaultKind::Flake;
  Step from = 0;
  Step to = 0;
  double rate = 1.0;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  // -- builders ---------------------------------------------------------------
  FaultPlan& crash(Pid p, Step at);
  FaultPlan& restart(Pid p, Step at);
  FaultPlan& stutter(Pid p, Step from, Step to, Step period);
  FaultPlan& abort_storm(std::string group, Step from, Step to, double rate,
                         double p_effect = 0.5);
  FaultPlan& link_fault(Pid writer, Pid reader, LinkPart part,
                        registers::RegFaultKind kind, Step from, Step to,
                        double rate = 1.0);
  /// Membership events (epoch-based reconfiguration): each bumps the
  /// view epoch at `at` (applied by a sim::MembershipDirector).
  FaultPlan& join(Pid p, Step at);
  FaultPlan& leave(Pid p, Step at);
  FaultPlan& replace(Pid out, Pid in, Step at);

  // -- random generation --------------------------------------------------------
  struct GenOptions {
    int n = 2;
    /// Events are drawn inside [horizon * 0.05, horizon * (1 - quiet_tail)].
    Step horizon = 1000000;
    /// Last fraction of the horizon kept event-free: the stable tail the
    /// conformance checker asserts the graded guarantees over.
    double quiet_tail = 0.4;
    int max_crash_cycles = 2;  ///< crash (optionally + restart) pairs
    int max_stutters = 2;
    int max_storms = 1;
    double p_restart = 0.75;  ///< chance a crash is followed by a restart
    Step min_stutter_period = 64;
    Step max_stutter_period = 4096;
    /// Unless set, one process is kept free of permanent crashes so the
    /// run always has a survivor.
    bool allow_crash_all = false;
    /// Group label stamped on generated storms ("" = every policy).
    std::string storm_group;
    /// Degraded links, all off by default: a plan generated without
    /// them is unchanged draw for draw, so existing seeds replay byte
    /// for byte. Each link fault picks an ordered pair, a part, a kind
    /// and a window.
    int max_link_faults = 0;
    /// Chance a link fault is a Jam (the rest split evenly over Drop,
    /// Stale, Torn and Flake).
    double p_link_jam = 0.5;
    /// Chance a link fault never heals (to = registers::kFaultForever).
    double p_link_permanent = 0.5;
    /// Membership churn, off by default: a plan generated without it is
    /// unchanged draw for draw (membership draws append after every
    /// other family), so existing seeds replay byte for byte. Each
    /// cycle removes `churn_pid` from the view and re-admits it (or,
    /// with p_replace, swaps it for itself via a replace event -- same
    /// set, two epoch bumps collapsed into one).
    int max_membership_cycles = 0;
    /// Pid the generated churn targets; kNoPid draws one per cycle.
    Pid churn_pid = kNoPid;
    /// Chance a cycle is a single replace event instead of leave+join.
    double p_replace = 0.25;
  };

  /// Deterministic: the same (seed, options) always yields the same plan.
  static FaultPlan generate(std::uint64_t seed, const GenOptions& options);

  // -- application --------------------------------------------------------------
  /// Schedule every crash and restart on the world.
  void install(World& world) const;

  /// Wrap `inner` in a ChaosSchedule applying this plan's stutter phases.
  std::unique_ptr<Schedule> wrap(std::unique_ptr<Schedule> inner) const;

  /// Push the storms matching `group` onto a phased abort policy. A storm
  /// with an empty group matches every policy; a policy armed with an
  /// empty group takes every storm.
  void arm(registers::PhasedAbortPolicy& policy,
           std::string_view group = "") const;

  /// Arm every link fault on `injector` against the channel registers
  /// it governs in `world`. Part -> register-name prefixes: Msg matches
  /// msg_prefix, Hb1/Hb2 match hb_prefix + "1"/"2", All matches all
  /// three. Returns the number of registers armed.
  int arm(registers::RegisterFaultInjector& injector, const World& world,
          const std::string& msg_prefix = "MsgRegister",
          const std::string& hb_prefix = "HbRegister") const;

  // -- introspection ------------------------------------------------------------
  std::uint64_t seed() const { return seed_; }
  const std::vector<CrashEvent>& crashes() const { return crashes_; }
  const std::vector<RestartEvent>& restarts() const { return restarts_; }
  const std::vector<StutterPhase>& stutters() const { return stutters_; }
  const std::vector<AbortStorm>& storms() const { return storms_; }
  const std::vector<LinkFaultEvent>& link_faults() const {
    return link_faults_;
  }
  const std::vector<core::MembershipEvent>& membership() const {
    return membership_;
  }
  bool empty() const {
    return crashes_.empty() && restarts_.empty() && stutters_.empty() &&
           storms_.empty() && link_faults_.empty() && membership_.empty();
  }

  /// Every event boundary, unsorted: crashes, restarts, stutter, storm
  /// and link-fault window edges (a permanent link fault contributes
  /// only its start) and membership events.
  std::vector<Step> event_edges() const;

  /// The last event boundary; 0 for an empty plan. Everything after is
  /// the stable tail.
  Step last_event_step() const;

  /// Epoch timeline for a run of n processes ending at run_end: one
  /// window per view, everyone a member of epoch 0. A plan with no
  /// membership events yields the single all-member epoch.
  std::vector<core::EpochWindow> epoch_timeline(int n, Step run_end) const;

  /// True iff p is in the view the plan leaves in force at the end of
  /// the run (non-members are not graded for progress).
  bool member_at_end(int n, Pid p) const;

  /// True iff the plan crashes p without a later restart.
  bool crashed_at_end(Pid p) const;

  /// True iff the channel from writer w to reader r is jam-dead for the
  /// whole of [from, to): its message register is jam-covered, or BOTH
  /// heartbeat registers are. (One healthy heartbeat register still
  /// carries the Figure 5 judgment -- see omega/hb_channel.)
  bool link_jam_dead(Pid w, Pid r, Step from, Step to) const;

  /// True iff the channel w -> r denies w a leadership turn for the
  /// whole of [from, to). Beyond jam-death this covers the value
  /// faults: a torn/stale/dropped stamp on even ONE heartbeat register
  /// is negative evidence (unlike an abort) -- it breaks the Figure 5
  /// freshness conjunction, r judges w inactive, and Figure 6 punishes
  /// w out of every leadership choice -- and a near-total abort flake
  /// behaves like a jam (message writes abort, dest = writeDone gates
  /// the heartbeats off, r punishes the silence).
  bool link_suppressed(Pid w, Pid r, Step from, Step to) const;

  /// True iff some live pair's message register silently drops at a
  /// near-total rate through the whole of [from, to) while the
  /// heartbeat pair stays healthy. Neither side can detect this --
  /// writes report success, reads stay valid -- so the reader's counter
  /// view freezes while the writer still looks timely, and leadership
  /// can deadlock on a mutually-stale minimum. No liveness verdict over
  /// such a window is judgeable; the checker demands none.
  bool link_partitioned(int n, Step from, Step to) const;

  /// Pids unreachable over the channel layer through [from, to): some
  /// peer the plan leaves alive sees them only over a suppressed link.
  /// The conformance checker refuses to grade these pids timely there
  /// -- a faulted medium can never earn a wait-free verdict.
  std::vector<Pid> channel_degraded(int n, Step from, Step to) const;

  /// Step boundaries partitioning [0, run_end) into the plan's phases:
  /// 0, every event edge below run_end, run_end. Sorted, deduplicated.
  std::vector<Step> phase_boundaries(Step run_end) const;

  /// Human-readable one-per-line event list (starts with the seed).
  std::string summary() const;

 private:
  std::uint64_t seed_ = 0;
  std::vector<CrashEvent> crashes_;
  std::vector<RestartEvent> restarts_;
  std::vector<StutterPhase> stutters_;
  std::vector<AbortStorm> storms_;
  std::vector<LinkFaultEvent> link_faults_;
  std::vector<core::MembershipEvent> membership_;
};

}  // namespace tbwf::sim
