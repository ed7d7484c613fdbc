#include "rt/rt_faults.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace tbwf::rt {

RtFaultPlan& RtFaultPlan::kill(std::uint32_t tid, std::uint64_t at_ns,
                               std::uint64_t restart_after_ns) {
  kills_.push_back({tid, at_ns, restart_after_ns});
  return *this;
}

RtFaultPlan& RtFaultPlan::stall(std::uint32_t tid, std::uint64_t at_ns,
                                std::uint64_t duration_ns) {
  stalls_.push_back({tid, at_ns, duration_ns});
  return *this;
}

RtFaultPlan& RtFaultPlan::storm(std::uint64_t from_ns, std::uint64_t to_ns,
                                std::uint32_t rate_millionths) {
  TBWF_ASSERT(from_ns < to_ns, "storm window must be non-empty");
  storms_.push_back({from_ns, to_ns, rate_millionths});
  return *this;
}

RtFaultPlan& RtFaultPlan::reg_fault(registers::RegFaultKind kind,
                                    std::uint64_t from_ns,
                                    std::uint64_t to_ns,
                                    std::uint32_t rate_millionths) {
  TBWF_ASSERT(to_ns == RtAbortInjector::kForeverNs || from_ns < to_ns,
              "reg-fault window must be non-empty");
  reg_faults_.push_back({kind, from_ns, to_ns, rate_millionths});
  return *this;
}

RtFaultPlan& RtFaultPlan::join(std::uint32_t tid, std::uint64_t at_ns) {
  membership_.push_back(
      {core::MembershipKind::kJoin, static_cast<int>(tid), -1, at_ns});
  return *this;
}

RtFaultPlan& RtFaultPlan::leave(std::uint32_t tid, std::uint64_t at_ns) {
  membership_.push_back(
      {core::MembershipKind::kLeave, static_cast<int>(tid), -1, at_ns});
  return *this;
}

RtFaultPlan& RtFaultPlan::replace(std::uint32_t out, std::uint32_t in,
                                  std::uint64_t at_ns) {
  membership_.push_back({core::MembershipKind::kReplace,
                         static_cast<int>(out), static_cast<int>(in), at_ns});
  return *this;
}

RtFaultPlan& RtFaultPlan::clock_fault(RtClockFaultKind kind,
                                      std::uint32_t tid,
                                      std::uint64_t from_ns,
                                      std::uint64_t to_ns,
                                      std::int64_t magnitude) {
  TBWF_ASSERT(to_ns == RtClockFaultEvent::kForeverNs || from_ns < to_ns,
              "clock-fault window must be non-empty");
  TBWF_ASSERT(to_ns != RtClockFaultEvent::kForeverNs ||
                  kind == RtClockFaultKind::Skew ||
                  kind == RtClockFaultKind::Drift,
              "only skew and drift may be permanent");
  clock_faults_.push_back({kind, tid, from_ns, to_ns, magnitude});
  return *this;
}

RtFaultPlan RtFaultPlan::generate(std::uint64_t seed,
                                  const GenOptions& options) {
  TBWF_ASSERT(options.nthreads >= 1, "need at least one thread");
  TBWF_ASSERT(options.quiet_tail > 0.0 && options.quiet_tail < 1.0,
              "quiet_tail must be a fraction of the horizon");
  RtFaultPlan plan(seed);
  util::Rng rng(seed ^ 0x52545F46414C5453ULL);  // "RT_FALTS"

  const auto lo = static_cast<std::uint64_t>(
      static_cast<double>(options.horizon_ns) * 0.05);
  const auto hi = static_cast<std::uint64_t>(
      static_cast<double>(options.horizon_ns) * (1.0 - options.quiet_tail));
  const auto at = [&] { return rng.range(lo, hi); };

  // One thread is spared permanent kills so the run keeps a survivor.
  const auto survivor = static_cast<std::uint32_t>(
      rng.below(static_cast<std::uint64_t>(options.nthreads)));

  const int nkills =
      options.max_kills > 0
          ? static_cast<int>(rng.below(
                static_cast<std::uint64_t>(options.max_kills) + 1))
          : 0;
  for (int i = 0; i < nkills; ++i) {
    const auto tid = static_cast<std::uint32_t>(
        rng.below(static_cast<std::uint64_t>(options.nthreads)));
    const std::uint64_t t = at();
    const bool restarts =
        rng.chance(options.p_restart) ||
        (!options.allow_kill_all && tid == survivor);
    std::uint64_t after = 0;
    if (restarts) {
      // Revive within the event window so the quiet tail stays quiet.
      const std::uint64_t max_after = t < hi ? hi - t : 1;
      after = 1 + rng.below(std::max<std::uint64_t>(max_after, 1));
    }
    // A thread can only die once without restart; later kills of the
    // same tid are fine (they target the revived incarnation) as long
    // as every kill but possibly the last restarts. Keep it simple:
    // allow at most one permanent kill per tid.
    if (after == 0 && plan.killed_at_end(tid)) continue;
    plan.kill(tid, t, after);
  }
  // Drop kills scheduled at-or-after a permanent kill of the same tid:
  // a permanently dead thread has no fault points left, so such a kill
  // could never fire and would make the plan's accounting unsatisfiable.
  // (Draw order is not time order, so this can't be checked in-loop.)
  {
    auto& kills = plan.kills_;
    std::vector<std::uint64_t> dead_from(
        static_cast<std::size_t>(options.nthreads), ~std::uint64_t{0});
    for (const auto& k : kills) {
      if (k.restart_after_ns == 0) dead_from[k.tid] = k.at_ns;
    }
    kills.erase(std::remove_if(kills.begin(), kills.end(),
                               [&](const RtKill& k) {
                                 return k.restart_after_ns > 0 &&
                                        k.at_ns >= dead_from[k.tid];
                               }),
                kills.end());
  }

  const int nstalls =
      options.max_stalls > 0
          ? static_cast<int>(rng.below(
                static_cast<std::uint64_t>(options.max_stalls) + 1))
          : 0;
  for (int i = 0; i < nstalls; ++i) {
    const auto tid = static_cast<std::uint32_t>(
        rng.below(static_cast<std::uint64_t>(options.nthreads)));
    const std::uint64_t t = at();
    std::uint64_t d =
        rng.range(options.min_stall_ns, options.max_stall_ns);
    // Keep the stall inside the event window.
    if (t + d > hi) d = hi > t ? hi - t : 1;
    plan.stall(tid, t, d);
  }

  const int nstorms =
      options.max_storms > 0
          ? static_cast<int>(rng.below(
                static_cast<std::uint64_t>(options.max_storms) + 1))
          : 0;
  for (int i = 0; i < nstorms; ++i) {
    std::uint64_t from = at();
    std::uint64_t to = at();
    if (from > to) std::swap(from, to);
    if (from == to) to = from + 1;
    plan.storm(from, to,
               static_cast<std::uint32_t>(
                   rng.range(options.min_storm_rate_millionths,
                             options.max_storm_rate_millionths)));
  }

  // Degraded-register windows on the attached cells. Transient windows
  // close inside the event window; a permanent one must be a Jam (the
  // conformance checker refuses to judge completions under it -- any
  // other permanent fault would just make the suffix unjudgeable noise).
  const int nregfaults =
      options.max_reg_faults > 0
          ? static_cast<int>(rng.below(
                static_cast<std::uint64_t>(options.max_reg_faults) + 1))
          : 0;
  for (int i = 0; i < nregfaults; ++i) {
    registers::RegFaultKind kind;
    if (rng.chance(options.p_reg_jam)) {
      kind = registers::RegFaultKind::Jam;
    } else {
      constexpr registers::RegFaultKind kOther[] = {
          registers::RegFaultKind::Drop, registers::RegFaultKind::Stale,
          registers::RegFaultKind::Flake};
      kind = kOther[rng.below(3)];
    }
    const std::uint64_t t = at();
    std::uint64_t d =
        rng.range(options.min_reg_fault_ns, options.max_reg_fault_ns);
    if (t + d > hi) d = hi > t ? hi - t : 1;
    const bool permanent = kind == registers::RegFaultKind::Jam &&
                           rng.chance(options.p_reg_permanent);
    const std::uint32_t rate =
        kind == registers::RegFaultKind::Jam
            ? 1000000
            : static_cast<std::uint32_t>(rng.range(400000, 950000));
    plan.reg_fault(kind, t,
                   permanent ? RtAbortInjector::kForeverNs : t + d, rate);
  }

  // Membership churn (only bites when the supervisor fires
  // on_membership). Cycles are sequential in time, so the view history
  // per cycle is a clean leave -> rejoin chain (or one replace event).
  // Draws append after every other family, so plans generated with the
  // default max_membership_cycles = 0 replay byte for byte.
  const int ncycles =
      options.nthreads >= 2 && options.max_membership_cycles > 0
          ? static_cast<int>(rng.below(
                static_cast<std::uint64_t>(options.max_membership_cycles) +
                1))
          : 0;
  std::uint64_t mcursor = lo;
  for (int i = 0; i < ncycles; ++i) {
    if (mcursor + 8 >= hi) break;  // no room left in the event window
    const auto tid =
        options.churn_tid >= 0
            ? static_cast<std::uint32_t>(options.churn_tid)
            : static_cast<std::uint32_t>(rng.below(
                  static_cast<std::uint64_t>(options.nthreads)));
    if (rng.chance(options.p_replace)) {
      const std::uint64_t t = rng.range(mcursor, hi - 1);
      plan.replace(tid, tid, t);
      mcursor = t + 1;
    } else {
      const std::uint64_t out_at = rng.range(mcursor, hi - 3);
      const std::uint64_t back = rng.range(out_at + 1, hi - 1);
      plan.leave(tid, out_at);
      plan.join(tid, back);
      mcursor = back + 1;
    }
  }

  // Clock faults (only bite when the supervisor's FaultClock is the
  // thread's time source, which it always is once armed). Draws append
  // after every other family, so plans generated with the default
  // max_clock_faults = 0 replay byte for byte.
  const int nclock =
      options.max_clock_faults > 0
          ? static_cast<int>(rng.below(
                static_cast<std::uint64_t>(options.max_clock_faults) + 1))
          : 0;
  for (int i = 0; i < nclock; ++i) {
    const auto tid =
        options.clock_tid >= 0
            ? static_cast<std::uint32_t>(options.clock_tid)
            : static_cast<std::uint32_t>(rng.below(
                  static_cast<std::uint64_t>(options.nthreads)));
    constexpr RtClockFaultKind kKinds[] = {
        RtClockFaultKind::Skew, RtClockFaultKind::Drift,
        RtClockFaultKind::JumpForward, RtClockFaultKind::JumpBackward,
        RtClockFaultKind::Freeze};
    const RtClockFaultKind kind = kKinds[rng.below(5)];
    const std::uint64_t t = at();
    std::uint64_t d =
        rng.range(options.min_clock_fault_ns, options.max_clock_fault_ns);
    if (t + d > hi) d = hi > t ? hi - t : 1;
    const bool permanent = (kind == RtClockFaultKind::Skew ||
                            kind == RtClockFaultKind::Drift) &&
                           rng.chance(options.p_clock_permanent);
    std::int64_t magnitude = 0;
    switch (kind) {
      case RtClockFaultKind::Skew:
        magnitude = static_cast<std::int64_t>(rng.range(
            options.min_clock_skew_ns, options.max_clock_skew_ns));
        if (rng.chance(0.5)) magnitude = -magnitude;
        break;
      case RtClockFaultKind::Drift:
        magnitude = static_cast<std::int64_t>(rng.range(
            options.min_clock_drift_ppm, options.max_clock_drift_ppm));
        if (rng.chance(0.5)) magnitude = -magnitude;
        break;
      case RtClockFaultKind::JumpForward:
        magnitude = static_cast<std::int64_t>(rng.range(
            options.min_clock_skew_ns, options.max_clock_skew_ns));
        break;
      case RtClockFaultKind::JumpBackward:
        magnitude = -static_cast<std::int64_t>(rng.range(
            options.min_clock_skew_ns, options.max_clock_skew_ns));
        break;
      case RtClockFaultKind::Freeze:
        break;
    }
    plan.clock_fault(kind, tid, t,
                     permanent ? RtClockFaultEvent::kForeverNs : t + d,
                     magnitude);
  }

  // Never return an empty plan: a sweep case with nothing to inject
  // would silently test nothing. Default to a mid-window stall.
  if (plan.empty()) {
    const auto tid = static_cast<std::uint32_t>(
        rng.below(static_cast<std::uint64_t>(options.nthreads)));
    plan.stall(tid, at(),
               rng.range(options.min_stall_ns, options.max_stall_ns));
  }
  return plan;
}

std::vector<std::uint64_t> RtFaultPlan::event_edges() const {
  std::vector<std::uint64_t> edges;
  for (const auto& k : kills_) {
    edges.push_back(k.at_ns);
    if (k.restart_after_ns > 0) edges.push_back(k.at_ns + k.restart_after_ns);
  }
  for (const auto& s : stalls_) {
    edges.push_back(s.at_ns);
    edges.push_back(s.at_ns + s.duration_ns);
  }
  for (const auto& s : storms_) {
    edges.push_back(s.from_ns);
    edges.push_back(s.to_ns);
  }
  // A permanent fault never closes: its start is the boundary, the
  // degradation itself is part of the stable suffix.
  for (const auto& f : reg_faults_) {
    edges.push_back(f.from_ns);
    if (f.to_ns != RtAbortInjector::kForeverNs) edges.push_back(f.to_ns);
  }
  for (const auto& c : clock_faults_) {
    edges.push_back(c.from_ns);
    if (c.to_ns != RtClockFaultEvent::kForeverNs) edges.push_back(c.to_ns);
  }
  for (const auto& ev : membership_) edges.push_back(ev.at);
  return edges;
}

std::uint64_t RtFaultPlan::last_event_ns() const {
  const std::vector<std::uint64_t> edges = event_edges();
  return edges.empty() ? 0 : *std::max_element(edges.begin(), edges.end());
}

bool RtFaultPlan::clock_faulted_in(std::uint32_t tid, std::uint64_t from_ns,
                                   std::uint64_t to_ns) const {
  constexpr std::uint64_t kForever = RtClockFaultEvent::kForeverNs;
  for (const auto& c : clock_faults_) {
    if (c.tid != tid) continue;
    // Worst-case distortion reach: how far outside the window the
    // faulted clock can stamp an event.
    std::uint64_t reach = 0;
    switch (c.kind) {
      case RtClockFaultKind::Skew:
      case RtClockFaultKind::JumpForward:
      case RtClockFaultKind::JumpBackward:
        reach = static_cast<std::uint64_t>(
            c.magnitude < 0 ? -c.magnitude : c.magnitude);
        break;
      case RtClockFaultKind::Drift: {
        if (c.to_ns == kForever) break;  // permanent: forward reach moot
        const std::uint64_t span = c.to_ns - c.from_ns;
        const auto mag = static_cast<std::uint64_t>(
            c.magnitude < 0 ? -c.magnitude : c.magnitude);
        reach = span / 1000000 * mag + span % 1000000 * mag / 1000000;
        break;
      }
      case RtClockFaultKind::Freeze:
        reach = c.to_ns == kForever ? 0 : c.to_ns - c.from_ns;
        break;
    }
    const std::uint64_t eff_from =
        c.from_ns > reach ? c.from_ns - reach : 0;
    const std::uint64_t eff_to =
        c.to_ns == kForever || c.to_ns + reach < c.to_ns  // saturate
            ? kForever
            : c.to_ns + reach;
    if (eff_from < to_ns && eff_to > from_ns) return true;
  }
  return false;
}

std::vector<core::EpochWindow> RtFaultPlan::epoch_timeline(
    int nthreads, std::uint64_t run_end_ns) const {
  return core::epoch_windows(nthreads, membership_, run_end_ns);
}

bool RtFaultPlan::member_at_end(int nthreads, std::uint32_t tid) const {
  const auto windows =
      epoch_timeline(nthreads, /*run_end_ns=*/last_event_ns() + 1);
  const auto& final_members = windows.back().members;
  return static_cast<int>(tid) < nthreads && final_members[tid];
}

bool RtFaultPlan::jam_covers(std::uint64_t from_ns,
                             std::uint64_t to_ns) const {
  return std::any_of(
      reg_faults_.begin(), reg_faults_.end(), [&](const RtRegFaultEvent& f) {
        return f.kind == registers::RegFaultKind::Jam &&
               f.from_ns <= from_ns &&
               (f.to_ns == RtAbortInjector::kForeverNs || f.to_ns >= to_ns);
      });
}

bool RtFaultPlan::killed_at_end(std::uint32_t tid) const {
  // With at most one permanent kill per tid (see generate) and restarts
  // encoded on the kill itself, "killed at end" is simply "has a kill
  // with no restart".
  return std::any_of(kills_.begin(), kills_.end(), [&](const RtKill& k) {
    return k.tid == tid && k.restart_after_ns == 0;
  });
}

std::vector<RtAbortInjector::Window> RtFaultPlan::storm_windows() const {
  std::vector<RtAbortInjector::Window> windows;
  windows.reserve(storms_.size());
  for (const auto& s : storms_) {
    windows.push_back({s.from_ns, s.to_ns, s.rate_millionths,
                       registers::RegFaultKind::Flake});
  }
  return windows;
}

std::vector<RtAbortInjector::Window> RtFaultPlan::fault_windows() const {
  std::vector<RtAbortInjector::Window> windows = storm_windows();
  windows.reserve(windows.size() + reg_faults_.size());
  for (const auto& f : reg_faults_) {
    windows.push_back({f.from_ns, f.to_ns, f.rate_millionths, f.kind});
  }
  return windows;
}

std::string RtFaultPlan::summary() const {
  std::ostringstream out;
  out << "rt plan seed=" << seed_ << "\n";
  for (const auto& k : kills_) {
    out << "  kill t" << k.tid << " at=" << k.at_ns << "ns";
    if (k.restart_after_ns > 0) {
      out << " restart +" << k.restart_after_ns << "ns";
    } else {
      out << " (permanent)";
    }
    out << "\n";
  }
  for (const auto& s : stalls_) {
    out << "  stall t" << s.tid << " at=" << s.at_ns << "ns for "
        << s.duration_ns << "ns\n";
  }
  for (const auto& s : storms_) {
    out << "  storm [" << s.from_ns << ", " << s.to_ns << ")ns rate="
        << s.rate_millionths << "ppm\n";
  }
  for (const auto& f : reg_faults_) {
    out << "  regfault " << registers::to_string(f.kind) << " ["
        << f.from_ns << ", ";
    if (f.to_ns == RtAbortInjector::kForeverNs) {
      out << "forever";
    } else {
      out << f.to_ns;
    }
    out << ")ns rate=" << f.rate_millionths << "ppm\n";
  }
  for (const auto& ev : membership_) {
    out << "  view " << core::describe(ev) << "ns\n";
  }
  for (const auto& c : clock_faults_) {
    out << "  clock " << to_string(c.kind) << " t" << c.tid << " ["
        << c.from_ns << ", ";
    if (c.to_ns == RtClockFaultEvent::kForeverNs) {
      out << "forever";
    } else {
      out << c.to_ns;
    }
    out << ")ns mag=" << c.magnitude
        << (c.kind == RtClockFaultKind::Drift ? "ppm" : "ns") << "\n";
  }
  if (empty()) out << "  (empty)\n";
  return out.str();
}

}  // namespace tbwf::rt
