#include "core/conformance.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <utility>

namespace tbwf::core {

namespace {

constexpr std::uint64_t kNever = ~std::uint64_t{0};

// -- the grading kernel -------------------------------------------------------
//
// Both backends state the same graded guarantee, so one kernel judges
// both. A front-end translates its run into a Timeline (options, suffix,
// fault edges, epochs, all in the backend's own time unit) and answers
// one question per judged window: what did each pid do there? That
// answer is a WindowView. The kernel owns everything else -- epoch
// sub-suffix anchoring, the inconclusive gate, the timely sets, the
// WF/LF/OF demands and the derived grade.

/// Largest gap between consecutive entries of the sorted stream inside
/// [from, to], counting the lead-in from `from` to the first entry and
/// the tail from the last entry to `to`. Entries outside are ignored.
std::uint64_t max_gap_in(const std::vector<std::uint64_t>& stream,
                         std::uint64_t from, std::uint64_t to) {
  std::uint64_t best = 0;
  std::uint64_t prev = from;
  for (const std::uint64_t c : stream) {
    if (c < from) continue;
    if (c > to) break;
    best = std::max(best, c - prev);
    prev = c;
  }
  return std::max(best, to - prev);
}

/// Which completion demands the medium leaves judgeable over a window.
enum class Demands : std::uint8_t {
  kAll,
  /// Contention is unjudgeable (a sim link partition can deadlock
  /// leadership among live contenders): no wait- or lock-freedom, but a
  /// solo runner still owes obstruction-freedom.
  kSoloOnly,
  /// The medium serves nothing (an rt jam): nothing is demanded.
  kNone,
};

/// One judged window [from, to] as a backend sees it, indexed by pid.
struct WindowView {
  explicit WindowView(int n)
      : bound(static_cast<std::size_t>(n), kNever),
        excluded(static_cast<std::size_t>(n), false),
        issuing(static_cast<std::size_t>(n), false),
        completions(static_cast<std::size_t>(n)) {}

  /// Realized timeliness bound in the window; kNever = took no step.
  std::vector<std::uint64_t> bound;
  /// Graded untimely whatever the trace shows (degraded medium or clock,
  /// outside the view, crashed): no demand on it, none counted via it.
  std::vector<bool> excluded;
  /// Held to completion demands in the window.
  std::vector<bool> issuing;
  /// Completion times inside the window, sorted.
  std::vector<std::vector<std::uint64_t>> completions;
  Demands demands = Demands::kAll;

  bool timely(std::size_t p, std::uint64_t timely_bound) const {
    return !excluded[p] && bound[p] != kNever && bound[p] <= timely_bound;
  }
};

/// epoch == nullptr asks for the whole-run stable suffix.
using ViewOf = std::function<WindowView(std::uint64_t from, std::uint64_t to,
                                        const EpochWindow* epoch)>;

/// Everything the kernel needs to know about a run besides its views.
struct Timeline {
  // Wording; the defaults are the sim's.
  const char* who = "p";          ///< pid prefix: "p" or "t"
  const char* unit = "";          ///< time unit: "" (steps) or "ns"
  const char* party = "process";  ///< "process" or "thread"
  std::string prefix;          ///< violation prefix (names the plan seed)
  std::uint64_t timely_bound = 0;
  std::uint64_t stabilization = 0;
  std::uint64_t min_suffix = 0;
  std::uint64_t max_completion_gap = 0;
  std::uint64_t suffix_from = 0;
  std::uint64_t run_end = 0;
  /// Edges an epoch's sub-suffix anchors on (the last one inside it).
  std::vector<std::uint64_t> fault_edges;
  /// Empty unless the plan has membership events.
  std::vector<EpochWindow> epochs;
  /// The trace holds every event from this time on; an epoch whose
  /// sub-suffix starts earlier has lost evidence and is inconclusive.
  std::uint64_t evidence_from = 0;
};

struct Graded {
  std::vector<EpochGrade> epochs;
  /// False iff the whole-run suffix was too short to judge.
  bool conclusive = false;
  WindowView suffix{0};  ///< the whole-run view, when conclusive
  std::vector<std::uint32_t> timely;
  RtGuaranteeGrade grade = RtGuaranteeGrade::kNone;
};

Graded grade_timeline(const Timeline& tl, const ViewOf& view_of,
                      std::vector<std::string>& violations) {
  const char* const who = tl.who;
  const char* const u = tl.unit;
  const auto violate = [&](const std::ostringstream& what) {
    violations.push_back(tl.prefix + what.str());
  };
  // Graded guarantee 1 -- wait-freedom for the timely: every timely
  // issuing pid keeps completing with bounded gaps over [from, to].
  // Returns the window's timely set.
  const auto wait_free = [&](const WindowView& v, std::uint64_t from,
                             std::uint64_t to, const std::string& lead,
                             const char* where) {
    std::vector<std::uint32_t> timely;
    for (std::size_t p = 0; p < v.bound.size(); ++p) {
      if (!v.timely(p, tl.timely_bound)) continue;
      timely.push_back(static_cast<std::uint32_t>(p));
      if (v.demands != Demands::kAll || !v.issuing[p]) continue;
      const std::uint64_t gap = max_gap_in(v.completions[p], from, to);
      if (gap > tl.max_completion_gap) {
        std::ostringstream what;
        what << lead << "wait-freedom: " << who << p << where << " (bound "
             << v.bound[p] << u << ") but its completion gap " << gap << u
             << " exceeds " << tl.max_completion_gap << u;
        violate(what);
      }
    }
    return timely;
  };
  Graded out;

  // Per-epoch grading under reconfiguration: each epoch earns its own
  // verdict over its own stable sub-suffix, so a clean final view can
  // never lend an unearned wait-free verdict to a churned middle.
  // Graded BEFORE the whole-run inconclusive gate: a view thrash that
  // eats the global tail still gets its early epochs judged.
  for (const EpochWindow& w : tl.epochs) {
    EpochGrade g;
    g.epoch = w.epoch;
    g.from = w.from;
    g.to = w.to;
    g.members = w.members;
    // Anchor on the last fault edge strictly inside the window; the
    // view change at the boundary already anchors the epoch start.
    std::uint64_t anchor = w.from;
    for (const std::uint64_t e : tl.fault_edges) {
      if (e > w.from && e < w.to) anchor = std::max(anchor, e);
    }
    g.suffix_from = anchor + tl.stabilization;
    g.conclusive = g.suffix_from + tl.min_suffix <= w.to &&
                   g.suffix_from >= tl.evidence_from;
    if (g.conclusive) {
      const std::vector<std::uint32_t> timely = wait_free(
          view_of(g.suffix_from, w.to, &w), g.suffix_from, w.to,
          "epoch " + std::to_string(w.epoch) + ": ",
          " is a timely member of the epoch's sub-suffix");
      g.suffix_timely.assign(timely.begin(), timely.end());
    }
    out.epochs.push_back(std::move(g));
  }

  if (tl.run_end < tl.suffix_from + tl.min_suffix) {
    std::ostringstream what;
    what << "stable suffix too short: run_end=" << tl.run_end << u
         << " < suffix_from=" << tl.suffix_from << u
         << " + min_suffix=" << tl.min_suffix << u
         << " (inconclusive, lengthen the run)";
    violate(what);
    return out;
  }
  out.conclusive = true;
  out.suffix = view_of(tl.suffix_from, tl.run_end, nullptr);
  const WindowView& v = out.suffix;
  out.timely = wait_free(v, tl.suffix_from, tl.run_end, "",
                         " is timely in the suffix");

  std::vector<std::size_t> steppers;
  std::size_t issuing = 0;
  std::size_t timely_issuing = 0;
  for (std::size_t p = 0; p < v.bound.size(); ++p) {
    if (v.bound[p] != kNever) steppers.push_back(p);
    if (!v.issuing[p]) continue;
    ++issuing;
    if (v.timely(p, tl.timely_bound)) ++timely_issuing;
  }
  const bool contended = v.demands == Demands::kAll;
  const bool solo = steppers.size() == 1 && v.issuing[steppers.front()];

  // Graded guarantee 2 -- lock-freedom with >= 1 timely issuing pid:
  // the merged completion stream of all issuing pids keeps moving.
  if (contended && timely_issuing >= 1) {
    std::vector<std::uint64_t> merged;
    for (std::size_t p = 0; p < v.issuing.size(); ++p) {
      if (!v.issuing[p]) continue;
      merged.insert(merged.end(), v.completions[p].begin(),
                    v.completions[p].end());
    }
    std::sort(merged.begin(), merged.end());
    const std::uint64_t gap = max_gap_in(merged, tl.suffix_from, tl.run_end);
    if (gap > tl.max_completion_gap) {
      std::ostringstream what;
      what << "lock-freedom: some issuing " << tl.party
           << " is timely but the merged completion gap " << gap << u
           << " exceeds " << tl.max_completion_gap << u;
      violate(what);
    }
  }

  // Graded guarantee 3 -- obstruction-freedom: a pid running solo in
  // the suffix (everyone else crashed or silent) must complete.
  if (v.demands != Demands::kNone && solo &&
      v.completions[steppers.front()].empty()) {
    std::ostringstream what;
    what << "obstruction-freedom: " << who << steppers.front()
         << " runs solo in the suffix but never completes";
    violate(what);
  }

  // The strongest guarantee the run was held to.
  if (v.demands == Demands::kNone || issuing == 0) {
    out.grade = RtGuaranteeGrade::kNone;
  } else if (contended && timely_issuing == issuing) {
    out.grade = RtGuaranteeGrade::kWaitFree;
  } else if (contended && timely_issuing >= 1) {
    out.grade = RtGuaranteeGrade::kLockFree;
  } else if (solo) {
    out.grade = RtGuaranteeGrade::kObstructionFree;
  } else {
    out.grade = RtGuaranteeGrade::kNone;
  }
  return out;
}

// -- report printing ----------------------------------------------------------

template <class Id>
void append_ids(std::ostringstream& out, const char* who,
                const std::vector<Id>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out << (i ? "," : "") << who << ids[i];
  }
}

/// The epoch-grade and violation lines both summaries end with ("p"
/// for sim pids, "t" for rt tids, "" / "ns" for the time unit).
void append_verdict_lines(std::ostringstream& out,
                          const std::vector<EpochGrade>& grades,
                          const std::vector<std::string>& violations,
                          const char* who, const char* unit) {
  for (const auto& g : grades) {
    std::vector<std::size_t> members;
    for (std::size_t p = 0; p < g.members.size(); ++p) {
      if (g.members[p]) members.push_back(p);
    }
    out << "  epoch " << g.epoch << " [" << g.from << unit << ", " << g.to
        << unit << ") members={";
    append_ids(out, who, members);
    out << "} ";
    if (!g.conclusive) {
      out << "inconclusive (sub-suffix too short)\n";
      continue;
    }
    out << "suffix_from=" << g.suffix_from << unit << " timely={";
    append_ids(out, who, g.suffix_timely);
    out << "}\n";
  }
  for (const auto& v : violations) out << "  VIOLATION: " << v << "\n";
}

void append_bound(std::ostringstream& out, std::uint64_t bound,
                  const char* unit) {
  if (bound == kNever) {
    out << "inf";
  } else {
    out << bound << unit;
  }
}

template <class T>
bool contains(const std::vector<T>& v, T x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

// -- sim front-end ------------------------------------------------------------

std::string ConformanceReport::summary() const {
  std::ostringstream out;
  out << "conformance plan seed=" << plan_seed << " run_end=" << run_end
      << " suffix_from=" << suffix_from << " suffix_timely={";
  append_ids(out, "p", suffix_timely);
  if (!channel_degraded.empty()) {
    out << "} degraded={";
    append_ids(out, "p", channel_degraded);
  }
  out << "}" << (link_partitioned ? " (link partitioned)" : "") << " "
      << (ok ? "OK" : "VIOLATED") << "\n";
  for (const auto& w : windows) {
    out << "  window [" << w.from << ", " << w.to << ") bounds:";
    for (std::size_t p = 0; p < w.realized_bound.size(); ++p) {
      out << " p" << p << "=";
      append_bound(out, w.realized_bound[p], "");
    }
    out << "\n";
  }
  append_verdict_lines(out, epoch_grades, violations, "p", "");
  return out.str();
}

ConformanceReport check_chaos_conformance(
    const sim::Trace& trace, const OpLog& log, const sim::FaultPlan& plan,
    const std::vector<sim::Pid>& issuing, const ConformanceOptions& options,
    util::Counters* metrics) {
  const int n = trace.n();
  ConformanceReport report;
  report.plan_seed = plan.seed();
  report.run_end = trace.now();
  report.suffix_from = plan.last_event_step() + options.stabilization;

  Timeline tl;
  tl.prefix = "plan seed=" + std::to_string(plan.seed()) + ": ";
  tl.timely_bound = options.timely_bound;
  tl.stabilization = options.stabilization;
  tl.min_suffix = options.min_suffix;
  tl.max_completion_gap = options.max_completion_gap;
  tl.suffix_from = report.suffix_from;
  tl.run_end = report.run_end;
  tl.fault_edges = plan.phase_boundaries(report.run_end);
  if (!plan.membership().empty()) {
    tl.epochs = plan.epoch_timeline(n, report.run_end);
  }

  // A sim bound is the longest run of foreign steps plus one.
  const auto bound_in = [&](sim::Pid p, std::uint64_t from, std::uint64_t to) {
    return trace.steps_of_in(p, from, to) == 0
               ? sim::Trace::kNever
               : trace.max_gap_in(p, from, to) + 1;
  };

  // Realized timeliness per plan phase (diagnostics + stutter checks).
  for (std::size_t i = 0; i + 1 < tl.fault_edges.size(); ++i) {
    WindowTimeliness w;
    w.from = tl.fault_edges[i];
    w.to = tl.fault_edges[i + 1];
    for (sim::Pid p = 0; p < n; ++p) {
      w.realized_bound.push_back(bound_in(p, w.from, w.to));
    }
    report.windows.push_back(std::move(w));
  }

  // The world must have ended in the state the plan prescribes; a
  // mismatch means the plan was not (fully) installed.
  for (sim::Pid p = 0; p < n; ++p) {
    if (trace.crashed(p) != plan.crashed_at_end(p)) {
      std::ostringstream out;
      out << tl.prefix << "p" << p << " is "
          << (trace.crashed(p) ? "crashed" : "alive")
          << " at run end but the plan says "
          << (plan.crashed_at_end(p) ? "crashed" : "alive");
      report.violations.push_back(out.str());
    }
  }

  // A pid the plan leaves reachable only over jam-dead channels is
  // graded untimely regardless of its trace: no peer can observe its
  // activity over the faulted medium. So is a pid outside the view in
  // force (it is fenced from leadership) and, over the whole-run suffix
  // only, a pid that ended the run crashed. A silent message-register
  // drop on a live pair through the window is undetectable -- writes
  // report success, reads stay valid -- so the frozen counter view can
  // deadlock leadership on a mutually-stale minimum: no contended demand
  // is judgeable there.
  const ViewOf view_of = [&](std::uint64_t from, std::uint64_t to,
                             const EpochWindow* epoch) {
    WindowView v(n);
    const std::vector<sim::Pid> degraded = plan.channel_degraded(n, from, to);
    const bool partitioned = plan.link_partitioned(n, from, to);
    if (epoch == nullptr) {
      report.channel_degraded = degraded;
      report.link_partitioned = partitioned;
    }
    if (partitioned) v.demands = Demands::kSoloOnly;
    for (sim::Pid p = 0; p < n; ++p) {
      const auto i = static_cast<std::size_t>(p);
      v.bound[i] = bound_in(p, from, to);
      const bool member =
          epoch != nullptr ? epoch->members[i] : plan.member_at_end(n, p);
      v.excluded[i] = !member || contains(degraded, p) ||
                      (epoch == nullptr && trace.crashed(p));
      v.issuing[i] = contains(issuing, p);
      const auto& cs = log.completions[i];
      v.completions[i].assign(std::lower_bound(cs.begin(), cs.end(), from),
                              std::upper_bound(cs.begin(), cs.end(), to));
    }
    return v;
  };

  Graded graded = grade_timeline(tl, view_of, report.violations);
  report.epoch_grades = std::move(graded.epochs);
  report.ok = report.violations.empty();
  if (!graded.conclusive) return report;
  report.suffix_timely.assign(graded.timely.begin(), graded.timely.end());

  if (metrics != nullptr) {
    for (sim::Pid p = 0; p < n; ++p) {
      const std::string pid = std::to_string(p);
      metrics->inc("chaos.crashes.p" + pid, trace.crash_count(p));
      metrics->inc("chaos.restarts.p" + pid, trace.restart_count(p));
    }
    for (const sim::Pid p : report.channel_degraded) {
      metrics->inc("chaos.channel_degraded.p" + std::to_string(p));
    }
    if (report.link_partitioned) {
      metrics->inc("chaos.conformance.link_partitioned");
    }
    metrics->inc("chaos.conformance.link_faults",
                 plan.link_faults().size());
    metrics->inc("chaos.conformance.epochs", report.epoch_grades.size());
    for (const auto& g : report.epoch_grades) {
      if (g.conclusive) metrics->inc("chaos.conformance.epochs_conclusive");
    }
    metrics->inc(report.ok ? "chaos.conformance.ok"
                           : "chaos.conformance.violated");
    metrics->inc("chaos.conformance.violations", report.violations.size());
  }

  return report;
}

// -- rt front-end --------------------------------------------------------------

const char* to_string(RtGuaranteeGrade grade) {
  switch (grade) {
    case RtGuaranteeGrade::kWaitFree:
      return "wait-free";
    case RtGuaranteeGrade::kLockFree:
      return "lock-free";
    case RtGuaranteeGrade::kObstructionFree:
      return "obstruction-free";
    case RtGuaranteeGrade::kNone:
      return "none";
  }
  return "?";
}

std::string RtConformanceReport::summary() const {
  std::ostringstream out;
  out << "rt conformance plan seed=" << plan_seed
      << " grade=" << to_string(grade)
      << (medium_jammed ? " (medium jammed)" : "");
  if (!clock_degraded.empty()) {
    out << " clock-degraded={";
    append_ids(out, "t", clock_degraded);
    out << "}";
  }
  out << " run_end=" << run_end_ns
      << "ns suffix_from=" << suffix_from_ns << "ns timely={";
  append_ids(out, "t", suffix_timely);
  out << "} issuing={";
  append_ids(out, "t", issuing);
  out << "} " << (ok ? "OK" : "VIOLATED") << "\n  suffix bounds:";
  for (std::size_t t = 0; t < realized_bound_ns.size(); ++t) {
    out << " t" << t << "=";
    append_bound(out, realized_bound_ns[t], "ns");
  }
  out << "\n";
  if (!reelection_ns.empty()) {
    out << "  re-election: " << reelection_ns.summary() << "\n";
  }
  append_verdict_lines(out, epoch_grades, violations, "t", "ns");
  return out.str();
}

RtConformanceReport check_rt_conformance(const rt::RtTraceSnapshot& trace,
                                         const rt::RtFaultPlan& plan,
                                         const RtConformanceOptions& options,
                                         util::Counters* metrics) {
  const int n = trace.n();
  RtConformanceReport report;
  report.plan_seed = plan.seed();
  report.run_end_ns = trace.run_end_ns;
  // A faulted clock must not define the common timeline either: each
  // trace ring is stamped by its owning thread, so a forward-skewed
  // seat stamps its final events PAST the honest end of the run,
  // handing every well-clocked tid a phantom tail gap ~= the skew --
  // blame the lying timestamps cannot support. Anchor run_end at the
  // last event a never-clock-faulted tid stamped (the snapshot max is
  // kept only if no seat escaped the fault family).
  if (!plan.clock_faults().empty()) {
    std::uint64_t honest_end = 0;
    for (int t = 0; t < n; ++t) {
      const auto faulted = [&](const rt::RtClockFaultEvent& c) {
        return c.tid == static_cast<std::uint32_t>(t);
      };
      if (std::any_of(plan.clock_faults().begin(),
                      plan.clock_faults().end(), faulted)) {
        continue;
      }
      for (const rt::RtEvent& ev :
           trace.per_tid[static_cast<std::size_t>(t)]) {
        honest_end = std::max(honest_end, ev.at_ns);
      }
    }
    if (honest_end != 0) report.run_end_ns = honest_end;
  }
  report.suffix_from_ns = plan.last_event_ns() + options.stabilization_ns;
  report.realized_bound_ns.assign(static_cast<std::size_t>(n),
                                  RtConformanceReport::kNeverNs);

  // A tid whose clock the plan faulted within distortion reach of the
  // suffix stamped its suffix events with a lying clock: it is graded
  // untimely (no unearned wait-freedom through it) and excused from
  // every per-tid demand (no blame its timestamps cannot support).
  for (int t = 0; t < n; ++t) {
    if (plan.clock_faulted_in(static_cast<std::uint32_t>(t),
                              report.suffix_from_ns, report.run_end_ns)) {
      report.clock_degraded.push_back(static_cast<std::uint32_t>(t));
    }
  }

  Timeline tl;
  tl.who = "t";
  tl.unit = "ns";
  tl.party = "thread";
  tl.prefix = "rt plan seed=" + std::to_string(plan.seed()) + ": ";
  tl.timely_bound = options.timely_bound_ns;
  tl.stabilization = options.stabilization_ns;
  tl.min_suffix = options.min_suffix_ns;
  tl.max_completion_gap = options.max_completion_gap_ns;
  tl.suffix_from = report.suffix_from_ns;
  tl.run_end = report.run_end_ns;
  if (!plan.membership().empty()) {
    tl.fault_edges = plan.event_edges();
    tl.epochs = plan.epoch_timeline(n, report.run_end_ns);
  }

  // Re-election latency over the whole run: a lease holder that dies or
  // stalls leaves the object leaderless until the next acquisition.
  {
    constexpr std::uint32_t kNoHolder = 0xFFFFFFFFu;
    std::uint32_t holder = kNoHolder;
    std::uint64_t leaderless_since = kNever;
    for (const rt::RtEvent& ev : trace.merged()) {
      switch (ev.kind) {
        case rt::RtEventKind::kLeaseAcquire:
          if (leaderless_since != kNever) {
            report.reelection_ns.add(ev.at_ns - leaderless_since);
            leaderless_since = kNever;
          }
          holder = ev.tid;
          break;
        case rt::RtEventKind::kLeaseRelease:
          if (ev.tid == holder) holder = kNoHolder;
          break;
        case rt::RtEventKind::kKill:
        case rt::RtEventKind::kStall:
          if (ev.tid == holder && leaderless_since == kNever) {
            leaderless_since = ev.at_ns;
            holder = kNoHolder;
          }
          break;
        default:
          break;
      }
    }
  }

  // The trace must cover the suffix: a ring that overflowed past the
  // suffix start cannot prove or refute anything. One that overflowed
  // past an epoch's sub-suffix has evicted that epoch's evidence: the
  // epoch is unjudgeable, not violated.
  for (int t = 0; t < n; ++t) {
    const auto& events = trace.per_tid[static_cast<std::size_t>(t)];
    const std::uint64_t dropped = trace.dropped[static_cast<std::size_t>(t)];
    if (dropped == 0) continue;
    const std::uint64_t oldest =
        events.empty() ? kNever : events.front().at_ns;
    tl.evidence_from = std::max(tl.evidence_from, oldest);
    if (oldest > report.suffix_from_ns) {
      std::ostringstream out;
      out << tl.prefix << "t" << t << " trace ring overflowed into the suffix ("
          << dropped << " events dropped); grow trace_capacity";
      report.violations.push_back(out.str());
    }
  }

  // An rt bound is the longest ns gap between a tid's activity stamps,
  // window edges counted. A tid with a faulted clock in the window, or
  // outside the view in force, is graded untimely. A jam covering the
  // window voids every completion demand (threads keep stepping through
  // a jam, so timeliness is still derived). Suffix activity of a tid the
  // plan killed for good is a zombie worker -- unless its clock lied: a
  // forward-distorted stamp can push a pre-death event past
  // suffix_from.
  const ViewOf view_of = [&](std::uint64_t from, std::uint64_t to,
                             const EpochWindow* epoch) {
    WindowView v(n);
    if (plan.jam_covers(from, to)) v.demands = Demands::kNone;
    for (int t = 0; t < n; ++t) {
      const auto i = static_cast<std::size_t>(t);
      const auto tid = static_cast<std::uint32_t>(t);
      std::vector<std::uint64_t> activity;
      for (const rt::RtEvent& ev : trace.per_tid[i]) {
        if (ev.at_ns < from || ev.at_ns > to) continue;
        activity.push_back(ev.at_ns);
        if (ev.kind == rt::RtEventKind::kOpStart) v.issuing[i] = true;
        if (ev.kind == rt::RtEventKind::kOpComplete) {
          v.completions[i].push_back(ev.at_ns);
        }
      }
      if (activity.empty()) continue;  // dead or silent: exempt from all
      // Faulted clocks stamp out of order; the gap scans need sorted
      // streams.
      std::sort(activity.begin(), activity.end());
      std::sort(v.completions[i].begin(), v.completions[i].end());
      v.bound[i] = max_gap_in(activity, from, to);
      const bool member = epoch != nullptr ? epoch->members[i]
                                           : plan.member_at_end(n, tid);
      v.excluded[i] = !member || plan.clock_faulted_in(tid, from, to);
      if (epoch == nullptr && plan.killed_at_end(tid) &&
          !contains(report.clock_degraded, tid)) {
        std::ostringstream out;
        out << tl.prefix << "t" << t
            << " is permanently killed by the plan but has "
            << activity.size() << " suffix events (zombie worker)";
        report.violations.push_back(out.str());
      }
    }
    return v;
  };

  Graded graded = grade_timeline(tl, view_of, report.violations);
  report.epoch_grades = std::move(graded.epochs);
  report.ok = report.violations.empty();
  if (!graded.conclusive) return report;
  report.realized_bound_ns = graded.suffix.bound;
  report.suffix_timely = std::move(graded.timely);
  for (int t = 0; t < n; ++t) {
    if (graded.suffix.issuing[static_cast<std::size_t>(t)]) {
      report.issuing.push_back(static_cast<std::uint32_t>(t));
    }
  }
  report.grade = graded.grade;

  // A Jam window covering the whole suffix means the registers served
  // nothing there: no completion guarantee is earnable, so none was
  // demanded and none is awarded.
  report.medium_jammed = graded.suffix.demands == Demands::kNone;
  if (report.medium_jammed) {
    if (metrics != nullptr) {
      metrics->inc("rt.conformance.medium_jammed");
      metrics->inc(report.ok ? "rt.conformance.ok"
                             : "rt.conformance.violated");
      metrics->inc("rt.conformance.violations", report.violations.size());
    }
    return report;
  }

  if (metrics != nullptr) {
    for (int t = 0; t < n; ++t) {
      std::uint64_t kills = 0;
      std::uint64_t stalls = 0;
      std::uint64_t restarts = 0;
      for (const rt::RtEvent& ev :
           trace.per_tid[static_cast<std::size_t>(t)]) {
        if (ev.kind == rt::RtEventKind::kKill) ++kills;
        if (ev.kind == rt::RtEventKind::kStall) ++stalls;
        if (ev.kind == rt::RtEventKind::kRestart) ++restarts;
      }
      const std::string tid = std::to_string(t);
      metrics->inc("rt.conformance.kills.t" + tid, kills);
      metrics->inc("rt.conformance.stalls.t" + tid, stalls);
      metrics->inc("rt.conformance.restarts.t" + tid, restarts);
    }
    metrics->inc("rt.reelect.count", report.reelection_ns.count());
    if (!report.reelection_ns.empty()) {
      metrics->max_of("rt.reelect.max_ns", report.reelection_ns.max());
    }
    for (const std::uint32_t t : report.clock_degraded) {
      metrics->inc("rt.conformance.clock_degraded.t" + std::to_string(t));
    }
    metrics->inc("rt.conformance.clock_faults",
                 plan.clock_faults().size());
    metrics->inc("rt.conformance.epochs", report.epoch_grades.size());
    for (const auto& g : report.epoch_grades) {
      if (g.conclusive) metrics->inc("rt.conformance.epochs_conclusive");
    }
    metrics->inc(std::string("rt.conformance.grade.") +
                 to_string(report.grade));
    metrics->inc(report.ok ? "rt.conformance.ok" : "rt.conformance.violated");
    metrics->inc("rt.conformance.violations", report.violations.size());
  }

  return report;
}

// -- batch-epoch front-end ------------------------------------------------------

std::string BatchConformanceReport::summary() const {
  std::ostringstream out;
  out << "batch conformance [" << suffix_from << ", " << run_end << ") "
      << (ok ? "OK" : "VIOLATED") << " commits=" << suffix_commits
      << " judged=" << judged_announces
      << " max_inclusion=" << max_inclusion_observed
      << " mean_batch=" << mean_batch_size << "\n";
  for (const auto& v : violations) out << "  VIOLATION: " << v << "\n";
  return out.str();
}

BatchConformanceReport check_batch_conformance(
    const BatchLog& log, const BatchConformanceOptions& options) {
  BatchConformanceReport report;
  report.suffix_from = options.suffix_from;
  report.run_end = options.run_end;
  report.mean_batch_size = log.mean_batch_size();

  // Commit steps are journalled in slot order == step order.
  std::vector<sim::Step> commit_steps;
  commit_steps.reserve(log.commits.size());
  for (const auto& c : log.commits) {
    commit_steps.push_back(c.step);
    if (c.step >= options.suffix_from && c.step < options.run_end) {
      ++report.suffix_commits;
    }
  }

  const auto is_timely = [&options](sim::Pid p) {
    for (const sim::Pid t : options.timely) {
      if (t == p) return true;
    }
    return false;
  };
  // Batches committed in (announced_at, applied_at] -- the number of
  // batch epochs the announce waited through before inclusion.
  const auto epochs_between = [&commit_steps](sim::Step from, sim::Step to) {
    const auto lo = std::upper_bound(commit_steps.begin(), commit_steps.end(),
                                     from);
    const auto hi = std::upper_bound(commit_steps.begin(), commit_steps.end(),
                                     to);
    return static_cast<std::uint64_t>(hi - lo);
  };

  bool any_pending_demand = false;
  for (const auto& a : log.announces) {
    if (a.announced_at < options.suffix_from ||
        a.announced_at >= options.run_end) {
      continue;
    }
    if (a.voided) continue;  // fate sealed F by the owner's own query
    const bool applied = a.applied_at != BatchAnnounceEvent::kNever;
    const bool excused_young =
        !applied &&
        options.run_end - a.announced_at <= options.end_grace;

    // Lock-freedom demand: SOME batch must commit soon after any
    // pending announce, timely owner or not (the merged stream serves
    // everyone).
    if (!excused_young) {
      any_pending_demand = true;
      const auto next_commit = std::upper_bound(
          commit_steps.begin(), commit_steps.end(), a.announced_at);
      const sim::Step served_by =
          next_commit != commit_steps.end() ? *next_commit : options.run_end;
      if (served_by - a.announced_at > options.max_commit_gap) {
        report.violations.push_back(
            "lock-freedom: no batch committed within " +
            std::to_string(options.max_commit_gap) + " steps of p" +
            std::to_string(a.owner) + "'s announce at step " +
            std::to_string(a.announced_at));
      }
    }

    if (!is_timely(a.owner)) continue;
    if (excused_young) continue;
    ++report.judged_announces;
    if (!applied) {
      report.violations.push_back(
          "wait-freedom: timely p" + std::to_string(a.owner) +
          "'s announce (uid " + std::to_string(a.uid) + ", step " +
          std::to_string(a.announced_at) + ") was never included in a batch");
      continue;
    }
    const std::uint64_t epochs = epochs_between(a.announced_at, a.applied_at);
    report.max_inclusion_observed =
        std::max(report.max_inclusion_observed, epochs);
    if (epochs > options.max_inclusion_batches) {
      report.violations.push_back(
          "wait-freedom: timely p" + std::to_string(a.owner) +
          "'s announce waited " + std::to_string(epochs) +
          " batch epochs (bound " +
          std::to_string(options.max_inclusion_batches) + ")");
    }
    if (a.applied_at - a.announced_at > options.max_inclusion_steps) {
      report.violations.push_back(
          "wait-freedom: timely p" + std::to_string(a.owner) +
          "'s announce waited " +
          std::to_string(a.applied_at - a.announced_at) + " steps (bound " +
          std::to_string(options.max_inclusion_steps) + ")");
    }
  }

  // Obstruction-freedom: demand in the window with live announcers but
  // not a single committed batch is a stall even without timely pids.
  if (any_pending_demand && report.suffix_commits == 0) {
    report.violations.push_back(
        "obstruction-freedom: announces pending in the suffix but no batch "
        "committed at all");
  }

  report.ok = report.violations.empty();
  return report;
}

SafetySummary safety_from_oracle(const verify::OracleResult& oracle) {
  SafetySummary safety;
  safety.checked = true;
  safety.ok = oracle.linearizable();
  safety.verdict = verify::to_string(oracle.verdict);
  safety.witness = oracle.witness;
  return safety;
}

GradedRunReport grade_run(ConformanceReport progress, SafetySummary safety,
                          util::Counters* metrics) {
  GradedRunReport report;
  report.progress = std::move(progress);
  report.safety = std::move(safety);
  if (metrics != nullptr) {
    metrics->inc(report.ok() ? "graded.ok" : "graded.violated");
    if (report.safety.checked && !report.safety.ok) {
      metrics->inc("graded.safety_violation");
    }
    if (!report.progress.ok) metrics->inc("graded.progress_violation");
  }
  return report;
}

std::string GradedRunReport::summary() const {
  std::string out = "graded run: ";
  out += ok() ? "OK" : "VIOLATED";
  out += "\n  safety: ";
  if (!safety.checked) {
    out += "(not checked)";
  } else {
    out += safety.verdict;
    if (!safety.witness.empty()) out += " -- " + safety.witness;
  }
  out += "\n  progress: ";
  out += progress.ok ? "OK" : "VIOLATED";
  out += "\n";
  out += progress.summary();
  return out;
}

// -- SLO x progress grading -----------------------------------------------------

namespace {

/// The one join behind both grade_service_run overloads.
template <class ProgressReport>
ServiceRunReport join_service_verdicts(const ProgressReport& progress,
                                       SloSummary slo,
                                       util::Counters* metrics) {
  ServiceRunReport report;
  report.progress_ok = progress.ok;
  report.progress_summary = progress.summary();
  report.slo = std::move(slo);
  if (metrics != nullptr) {
    metrics->inc(report.ok() ? "service.ok" : "service.violated");
    if (report.slo.checked && !report.slo.ok) {
      metrics->inc("service.slo_violation");
    }
    if (!report.progress_ok) metrics->inc("service.progress_violation");
  }
  return report;
}

}  // namespace

ServiceRunReport grade_service_run(const ConformanceReport& progress,
                                   SloSummary slo, util::Counters* metrics) {
  return join_service_verdicts(progress, std::move(slo), metrics);
}

ServiceRunReport grade_service_run(const RtConformanceReport& progress,
                                   SloSummary slo, util::Counters* metrics) {
  return join_service_verdicts(progress, std::move(slo), metrics);
}

std::string ServiceRunReport::summary() const {
  std::ostringstream out;
  out << "service run: " << (ok() ? "OK" : "VIOLATED");
  if (!ok()) {
    // Name the failing axis outright: that is the whole point of the
    // joint verdict.
    out << " (";
    if (!progress_ok && slo.checked && !slo.ok) {
      out << "progress AND slo failed";
    } else if (!progress_ok) {
      out << "progress failed, slo "
          << (slo.checked ? "passed" : "not checked");
    } else {
      out << "slo failed, progress passed";
    }
    out << ")";
  }
  out << "\n  slo: ";
  if (!slo.checked) {
    out << "(not checked)";
  } else {
    out << slo.verdict;
    for (const auto& v : slo.violations) out << "\n    SLO: " << v;
  }
  out << "\n  progress: " << (progress_ok ? "OK" : "VIOLATED") << "\n";
  out << progress_summary;
  return out.str();
}

}  // namespace tbwf::core
