// Post-run TBWF conformance checkers for chaos runs.
//
// Given the trace of a run driven by a fault plan, a checker re-derives
// each process's *realized* timeliness from the trace alone -- the plan
// only tells it where the fault edges are -- and asserts the paper's
// graded guarantees (Theorem 14 / Section 2) over the stable suffix
// after the last fault:
//
//   - every suffix-timely process that keeps issuing operations is
//     wait-free there: its completion gaps stay bounded;
//   - if at least one issuing process is suffix-timely, the object is
//     lock-free: the merged completion stream has bounded gaps;
//   - if exactly one process takes steps in the suffix (everyone else
//     crashed or silent) and it issues operations, it completes at
//     least one: obstruction-freedom.
//
// One grading kernel states these once; the sim front-end (global
// steps) and the rt front-end (wall-clock ns) feed it their own realized
// bounds and exclusions. Every violation message carries the plan seed,
// so a red sweep case replays deterministically from the message alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/batch_log.hpp"
#include "core/tbwf_object.hpp"
#include "rt/rt_faults.hpp"
#include "rt/rt_trace.hpp"
#include "sim/faultplan.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"
#include "util/metrics.hpp"
#include "verify/oracle_result.hpp"

namespace tbwf::core {

struct ConformanceOptions {
  /// A process with realized bound <= timely_bound in the stable suffix
  /// counts as timely there (Definition 1, empirically).
  sim::Step timely_bound = 64;
  /// Steps granted after the last plan event before the stable suffix
  /// starts: elections must re-stabilize, wounded operations drain.
  sim::Step stabilization = 100000;
  /// Wait-freedom bound: max steps between consecutive completions of a
  /// timely process in the suffix (and from the suffix start to its
  /// first completion, and from its last completion to the run end).
  sim::Step max_completion_gap = 100000;
  /// The suffix must be at least this long or the checker flags the run
  /// as inconclusive rather than silently passing on a too-short tail.
  sim::Step min_suffix = 100000;
};

/// Realized per-process timeliness in one plan phase [from, to):
/// the empirical bound restricted to the window, Trace::kNever when the
/// process took no step there.
struct WindowTimeliness {
  sim::Step from = 0;
  sim::Step to = 0;
  std::vector<sim::Step> realized_bound;  ///< indexed by pid
};

/// One epoch's independent verdict under a reconfiguring plan. Time is
/// backend-native (global steps for sim, wall-clock ns for rt), widened
/// to uint64 so both checkers share the struct. A reconfiguration must
/// never let a clean final view lend an unearned wait-free verdict to a
/// churned middle: each epoch is graded over its OWN stable sub-suffix.
struct EpochGrade {
  std::uint32_t epoch = 0;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  /// The view in force during the epoch, indexed by pid/tid.
  std::vector<bool> members;
  /// An epoch is conclusive iff its sub-suffix -- from the last fault
  /// edge strictly inside the window (the view change at the boundary
  /// already anchors the start) plus stabilization -- is at least
  /// min_suffix long. Inconclusive mid-run epochs are reported, never
  /// violated: a window too short to judge earns nothing and owes
  /// nothing.
  bool conclusive = false;
  std::uint64_t suffix_from = 0;
  /// Members empirically timely in the epoch's sub-suffix (populated
  /// for conclusive epochs only).
  std::vector<int> suffix_timely;
};

struct ConformanceReport {
  bool ok = false;
  std::uint64_t plan_seed = 0;
  sim::Step suffix_from = 0;
  sim::Step run_end = 0;
  /// Processes empirically timely (w.r.t. timely_bound) in the suffix.
  std::vector<sim::Pid> suffix_timely;
  /// Processes the plan leaves reachable only over suppressed links
  /// through the suffix (FaultPlan::channel_degraded). They are graded
  /// untimely no matter what the trace shows: activity a peer can never
  /// observe over the faulted medium earns no wait-free verdict.
  std::vector<sim::Pid> channel_degraded;
  /// A silent-drop window on a live pair's message register covers the
  /// whole suffix (FaultPlan::link_partitioned): the reader's counter
  /// view freezes with no evidence to detect it, so leadership can
  /// deadlock on a mutually-stale minimum. The checker demands no
  /// completion guarantees -- not even lock-freedom -- over such a
  /// window (and, symmetrically, awards none).
  bool link_partitioned = false;
  /// Realized timeliness per plan phase, for diagnostics.
  std::vector<WindowTimeliness> windows;
  /// Per-epoch independent grading; populated only when the plan has
  /// membership events. Violations inside an epoch carry an
  /// "epoch <e>:" prefix.
  std::vector<EpochGrade> epoch_grades;
  std::vector<std::string> violations;

  std::string summary() const;
};

/// Check one finished chaos run. `issuing` lists the pids whose workload
/// keeps issuing operations to the end of the run (only they are held to
/// completion guarantees). `metrics`, when given, receives per-process
/// fault/recovery counters (chaos.crashes.p<i>, chaos.restarts.p<i>) and
/// the checker verdict tallies.
ConformanceReport check_chaos_conformance(
    const sim::Trace& trace, const OpLog& log, const sim::FaultPlan& plan,
    const std::vector<sim::Pid>& issuing, const ConformanceOptions& options,
    util::Counters* metrics = nullptr);

// -- batch-epoch front-end ------------------------------------------------------
//
// The batched throughput engine (qa/qa_batched.hpp) commits one BATCH
// of announced ops per decided slot, so the paper's graded guarantees
// restate per *batch epoch* (= one committed batch):
//
//   timely => wait-free     every announce by a suffix-timely process
//                           is INCLUDED in a committed batch within
//                           max_inclusion_batches epochs of its
//                           announce (and within max_inclusion_steps);
//   one timely => lock-free while any announce is pending in the
//                           suffix, some batch commits within
//                           max_commit_gap steps of it -- the merged
//                           batch stream never stalls against demand;
//   solo => obstruction-free a suffix with announces and at least one
//                           live announcer must commit at least one
//                           batch.
//
// The same run can therefore be judged twice -- per-op by
// check_chaos_conformance over the completion log, per-epoch by
// check_batch_conformance over the batch log -- and the two verdicts
// must agree (tests/batch_conformance_test.cpp asserts they do).

struct BatchConformanceOptions {
  /// Stable-suffix window [suffix_from, run_end) the guarantees are
  /// judged over (take them from a per-op ConformanceReport to compare
  /// verdicts on the same footing).
  sim::Step suffix_from = 0;
  sim::Step run_end = 0;
  /// Announcers held to the per-op inclusion bound (suffix-timely).
  std::vector<sim::Pid> timely;
  /// Wait-freedom: max committed batches between a timely announce and
  /// its inclusion.
  std::uint64_t max_inclusion_batches = 16;
  /// Wait-freedom: max steps between a timely announce and inclusion.
  sim::Step max_inclusion_steps = 100000;
  /// Lock-freedom: max steps an announce may pend with no batch
  /// committing at all.
  sim::Step max_commit_gap = 100000;
  /// Announces younger than this at run end are excused (still in
  /// flight when the run stopped).
  sim::Step end_grace = 100000;
};

struct BatchConformanceReport {
  bool ok = false;
  sim::Step suffix_from = 0;
  sim::Step run_end = 0;
  /// Batches committed inside the judged window.
  std::uint64_t suffix_commits = 0;
  /// Announces judged (timely owners, inside the window, not excused).
  std::uint64_t judged_announces = 0;
  /// Largest observed announce-to-inclusion distance, in batch epochs.
  std::uint64_t max_inclusion_observed = 0;
  double mean_batch_size = 0.0;
  std::vector<std::string> violations;

  std::string summary() const;
};

/// Judge one finished batched run against the per-batch-epoch
/// restatement of the graded guarantees.
BatchConformanceReport check_batch_conformance(
    const BatchLog& log, const BatchConformanceOptions& options);

// -- rt front-end --------------------------------------------------------------
//
// The same judgement over a REAL-THREAD run: the RtTrace's wall-clock
// nanoseconds play the role of the simulator's global step counter and
// the RtFaultPlan supplies the fault edges. Because the OS can
// deschedule any thread at any time, the checker never asserts who
// SHOULD be timely -- it derives who WAS, then holds the run to exactly
// the guarantee that grade earns: kWaitFree (every issuing thread was
// timely), kLockFree (>= 1 was), kObstructionFree (exactly one thread
// stepped), kNone (nothing derivable).

enum class RtGuaranteeGrade : std::uint8_t {
  kWaitFree,
  kLockFree,
  kObstructionFree,
  kNone,
};

const char* to_string(RtGuaranteeGrade grade);

struct RtConformanceOptions {
  /// A thread whose suffix activity gaps stay <= this is timely there.
  std::uint64_t timely_bound_ns = 2000000;  // 2 ms
  /// Grace after the plan's last fault before the suffix starts
  /// (re-election must settle, wounded operations drain).
  std::uint64_t stabilization_ns = 3000000;  // 3 ms
  /// The suffix must be at least this long or the run is inconclusive.
  std::uint64_t min_suffix_ns = 5000000;  // 5 ms
  /// Completion-gap bound for the wait-free / lock-free checks.
  std::uint64_t max_completion_gap_ns = 10000000;  // 10 ms
};

struct RtConformanceReport {
  static constexpr std::uint64_t kNeverNs = ~0ULL;

  bool ok = false;
  std::uint64_t plan_seed = 0;
  RtGuaranteeGrade grade = RtGuaranteeGrade::kNone;
  /// A Jam reg-fault window covers the whole stable suffix: the shared
  /// medium serves nothing there, so the checker demands no completions
  /// and awards no grade -- wait-freedom a jammed register cannot earn
  /// is never reported.
  bool medium_jammed = false;
  /// Tids whose clock the plan faulted inside (or within distortion
  /// reach of) the stable suffix: graded untimely regardless of their
  /// trace -- timestamps a faulted clock stamped can neither earn a
  /// timely verdict nor carry blame for one (the clock twin of the sim
  /// checker's channel_degraded escape).
  std::vector<std::uint32_t> clock_degraded;
  std::uint64_t suffix_from_ns = 0;
  std::uint64_t run_end_ns = 0;
  /// Empirical suffix timeliness bound per tid (kNeverNs = silent/dead).
  std::vector<std::uint64_t> realized_bound_ns;
  std::vector<std::uint32_t> suffix_timely;
  /// Tids that invoked at least one operation in the suffix.
  std::vector<std::uint32_t> issuing;
  /// Lease-holder death/stall -> next acquisition by anyone, full run.
  util::Histogram reelection_ns;
  /// Per-epoch independent grading; populated only when the plan has
  /// membership events (see EpochGrade).
  std::vector<EpochGrade> epoch_grades;
  std::vector<std::string> violations;

  std::string summary() const;
};

/// Judge one finished supervised rt run. `metrics`, when given, receives
/// per-thread fault counters (rt.conformance.kills.t<i>, .stalls.t<i>,
/// .restarts.t<i>), re-election latency tallies (rt.reelect.count,
/// rt.reelect.max_ns) and the verdict (rt.conformance.{ok,violated}).
RtConformanceReport check_rt_conformance(const rt::RtTraceSnapshot& trace,
                                         const rt::RtFaultPlan& plan,
                                         const RtConformanceOptions& options,
                                         util::Counters* metrics = nullptr);

// -- safety x progress grading --------------------------------------------------
//
// The verify layer (src/verify/) adds a SAFETY verdict -- the
// linearizability oracle over a captured history -- next to the
// conformance checker's PROGRESS verdict. A GradedRunReport holds both,
// so one run is judged on both axes: an algorithm that completes
// operations briskly but returns non-linearizable results fails, and so
// does one that is safe but starves a timely process.

/// Type-erased safety verdict (built from verify::OracleResult via
/// safety_from_oracle, or filled by hand for runs graded another way).
struct SafetySummary {
  bool checked = false;  ///< false = no oracle ran (progress-only run)
  bool ok = true;
  std::string verdict;  ///< "LINEARIZABLE" / "VIOLATION" / "RESOURCE_LIMIT"
  std::string witness;  ///< non-empty on failure
};

/// Map an oracle result onto a SafetySummary. kResourceLimit counts as
/// NOT ok: a verdict the oracle could not establish must not pass.
SafetySummary safety_from_oracle(const verify::OracleResult& oracle);

struct GradedRunReport {
  ConformanceReport progress;
  SafetySummary safety;

  bool ok() const { return progress.ok && (!safety.checked || safety.ok); }
  std::string summary() const;
};

/// Combine the two verdicts; `metrics`, when given, receives
/// graded.{ok,safety_violation,progress_violation} tallies.
GradedRunReport grade_run(ConformanceReport progress, SafetySummary safety,
                          util::Counters* metrics = nullptr);

// -- SLO x progress grading -----------------------------------------------------
//
// The soak harness (src/soak/) adds a SERVICE verdict next to the
// progress verdict: client-visible latency and availability budgets
// over the whole run. The two are judged independently on purpose --
// heavy mid-run churn with a clean tail passes progress conformance
// (the graded guarantees are suffix properties) yet can blow the SLO's
// cumulative budgets, and a medium the plan jammed through the suffix
// voids every progress demand while the SLO still fails the frozen
// service. A ServiceRunReport holds both and says which axis failed.

/// Type-erased SLO verdict (built from soak::SloReport via
/// soak::slo_summary, or filled by hand). Mirrors SafetySummary:
/// `checked` false = no SLO was graded (progress-only run).
struct SloSummary {
  bool checked = false;
  bool ok = true;
  std::string verdict;  ///< "SLO-OK" / "SLO-VIOLATED" / "SLO-INCONCLUSIVE"
  std::vector<std::string> violations;
};

struct ServiceRunReport {
  bool progress_ok = false;
  /// The progress checker's full human-readable report.
  std::string progress_summary;
  SloSummary slo;

  bool ok() const { return progress_ok && (!slo.checked || slo.ok); }
  std::string summary() const;
};

/// Join the verdicts of a sim soak run; `metrics`, when given, receives
/// service.{ok,slo_violation,progress_violation} tallies.
ServiceRunReport grade_service_run(const ConformanceReport& progress,
                                   SloSummary slo,
                                   util::Counters* metrics = nullptr);
/// Same join for an rt soak run.
ServiceRunReport grade_service_run(const RtConformanceReport& progress,
                                   SloSummary slo,
                                   util::Counters* metrics = nullptr);

}  // namespace tbwf::core
