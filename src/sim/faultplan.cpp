#include "sim/faultplan.hpp"

#include <algorithm>
#include <sstream>

#include "registers/abort_policy.hpp"
#include "sim/world.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace tbwf::sim {

FaultPlan& FaultPlan::crash(Pid p, Step at) {
  crashes_.push_back({p, at});
  return *this;
}

FaultPlan& FaultPlan::restart(Pid p, Step at) {
  restarts_.push_back({p, at});
  return *this;
}

FaultPlan& FaultPlan::stutter(Pid p, Step from, Step to, Step period) {
  TBWF_ASSERT(period >= 1, "stutter period must be >= 1");
  TBWF_ASSERT(from <= to, "stutter window must be ordered");
  stutters_.push_back({p, from, to, period});
  return *this;
}

FaultPlan& FaultPlan::abort_storm(std::string group, Step from, Step to,
                                  double rate, double p_effect) {
  TBWF_ASSERT(from <= to, "storm window must be ordered");
  storms_.push_back({std::move(group), from, to, rate, p_effect});
  return *this;
}

const char* to_string(LinkPart part) {
  switch (part) {
    case LinkPart::All:
      return "all";
    case LinkPart::Msg:
      return "msg";
    case LinkPart::Hb1:
      return "hb1";
    case LinkPart::Hb2:
      return "hb2";
  }
  return "?";
}

FaultPlan& FaultPlan::link_fault(Pid writer, Pid reader, LinkPart part,
                                 registers::RegFaultKind kind, Step from,
                                 Step to, double rate) {
  TBWF_ASSERT(writer != reader, "a link joins two distinct processes");
  TBWF_ASSERT(to == registers::kFaultForever || from <= to,
              "link-fault window must be ordered");
  link_faults_.push_back({writer, reader, part, kind, from, to, rate});
  return *this;
}

FaultPlan& FaultPlan::join(Pid p, Step at) {
  membership_.push_back({core::MembershipKind::kJoin, p, -1, at});
  return *this;
}

FaultPlan& FaultPlan::leave(Pid p, Step at) {
  membership_.push_back({core::MembershipKind::kLeave, p, -1, at});
  return *this;
}

FaultPlan& FaultPlan::replace(Pid out, Pid in, Step at) {
  membership_.push_back({core::MembershipKind::kReplace, out, in, at});
  return *this;
}

FaultPlan FaultPlan::generate(std::uint64_t seed,
                              const GenOptions& options) {
  TBWF_ASSERT(options.n >= 1, "need at least one process");
  TBWF_ASSERT(options.horizon >= 100, "horizon too small for a plan");
  TBWF_ASSERT(options.quiet_tail >= 0.0 && options.quiet_tail < 0.95,
              "quiet_tail out of range");

  FaultPlan plan(seed);
  util::Rng rng(seed ^ 0x5FA017C0FFEE5EEDULL);

  const Step lo = options.horizon / 20;
  const Step hi = static_cast<Step>(
      static_cast<double>(options.horizon) * (1.0 - options.quiet_tail));
  TBWF_ASSERT(lo + 16 < hi, "event window is empty; widen the horizon");

  // One process is exempt from *permanent* crashes (its crashes are
  // always followed by a restart), so every run keeps a live process.
  const Pid protected_pid =
      options.allow_crash_all ? kNoPid : static_cast<Pid>(rng.below(
                                             static_cast<std::uint64_t>(
                                                 options.n)));

  const auto draw_count = [&rng](int max) {
    return max > 0 ? static_cast<int>(
                         rng.below(static_cast<std::uint64_t>(max) + 1))
                   : 0;
  };
  int cycles = draw_count(options.max_crash_cycles);
  const int stutters = draw_count(options.max_stutters);
  const int storms = draw_count(options.max_storms);
  const int link_faults =
      options.n >= 2 ? draw_count(options.max_link_faults) : 0;
  if (cycles == 0 && stutters == 0 && storms == 0 && link_faults == 0) {
    cycles = 1;  // never generate an empty plan
  }

  // Crash / restart cycles. Per-pid cursors keep each process's events
  // ordered: a second crash of p is drawn after p's previous restart.
  std::vector<Step> cursor(static_cast<std::size_t>(options.n), lo);
  for (int c = 0; c < cycles; ++c) {
    const Pid p = static_cast<Pid>(
        rng.below(static_cast<std::uint64_t>(options.n)));
    const Step earliest = cursor[static_cast<std::size_t>(p)];
    if (earliest + 4 >= hi) continue;  // no room left for this pid
    const Step at = rng.range(earliest, hi - 3);
    plan.crash(p, at);
    if (p == protected_pid || rng.chance(options.p_restart)) {
      const Step back = rng.range(at + 1, hi - 1);
      plan.restart(p, back);
      cursor[static_cast<std::size_t>(p)] = back + 1;
    } else {
      cursor[static_cast<std::size_t>(p)] = hi;  // down for good
    }
  }

  // Stutter windows: untimely-then-recover phases. Overlap between
  // windows (even of the same process) is fine -- blackout is the union.
  for (int s = 0; s < stutters; ++s) {
    const Pid p = static_cast<Pid>(
        rng.below(static_cast<std::uint64_t>(options.n)));
    const Step period =
        rng.range(options.min_stutter_period, options.max_stutter_period);
    const Step len = period * rng.range(2, 10);
    if (lo + len >= hi) continue;  // window would not fit before the tail
    const Step from = rng.range(lo, hi - len);
    plan.stutter(p, from, from + len, period);
  }

  // Abort storms (only bite when a PhasedAbortPolicy is armed).
  for (int s = 0; s < storms; ++s) {
    const Step len = rng.range((hi - lo) / 16 + 1, (hi - lo) / 4 + 1);
    const Step from = rng.range(lo, hi - len);
    const double rate = 0.5 + 0.5 * rng.uniform01();
    plan.abort_storm(options.storm_group, from, from + len, rate);
  }

  // Degraded links (only bite when a RegisterFaultInjector is armed).
  // Transient faults close inside the event window; a permanent one
  // stays open through the quiet tail -- the conformance checker then
  // grades the writer's side of the link through channel_degraded().
  for (int f = 0; f < link_faults; ++f) {
    const Pid w = static_cast<Pid>(
        rng.below(static_cast<std::uint64_t>(options.n)));
    Pid r = static_cast<Pid>(
        rng.below(static_cast<std::uint64_t>(options.n - 1)));
    if (r >= w) ++r;
    const auto part = static_cast<LinkPart>(rng.below(4));
    registers::RegFaultKind kind;
    if (rng.chance(options.p_link_jam)) {
      kind = registers::RegFaultKind::Jam;
    } else {
      constexpr registers::RegFaultKind kOther[] = {
          registers::RegFaultKind::Drop, registers::RegFaultKind::Stale,
          registers::RegFaultKind::Torn, registers::RegFaultKind::Flake};
      kind = kOther[rng.below(4)];
    }
    const Step len = rng.range((hi - lo) / 8 + 1, (hi - lo) / 2 + 1);
    const Step from = rng.range(lo, hi > len ? hi - len : lo + 1);
    const bool permanent = rng.chance(options.p_link_permanent);
    const double rate = kind == registers::RegFaultKind::Jam
                            ? 1.0
                            : 0.5 + 0.5 * rng.uniform01();
    plan.link_fault(w, r, part, kind, from,
                    permanent ? registers::kFaultForever : from + len, rate);
  }

  // Membership churn (only bites when a MembershipDirector is
  // installed). Cycles are sequential in time, so the view history per
  // cycle is a clean leave -> rejoin chain (or one replace event:
  // crash-and-be-replaced on the same seat). The cycle count is drawn
  // HERE, after every other family's draws, so enabling the knob
  // appends view events to the plan a churn-free generation of the
  // same seed would produce instead of perturbing its other draws.
  const int membership_cycles =
      options.n >= 2 ? draw_count(options.max_membership_cycles) : 0;
  Step mcursor = lo;
  for (int m = 0; m < membership_cycles; ++m) {
    if (mcursor + 8 >= hi) break;  // no room left in the event window
    const Pid p = options.churn_pid != kNoPid
                      ? options.churn_pid
                      : static_cast<Pid>(rng.below(
                            static_cast<std::uint64_t>(options.n)));
    if (rng.chance(options.p_replace)) {
      const Step at = rng.range(mcursor, hi - 1);
      plan.replace(p, p, at);
      mcursor = at + 1;
    } else {
      const Step out_at = rng.range(mcursor, hi - 3);
      const Step back = rng.range(out_at + 1, hi - 1);
      plan.leave(p, out_at);
      plan.join(p, back);
      mcursor = back + 1;
    }
  }

  return plan;
}

void FaultPlan::install(World& world) const {
  for (const auto& ev : crashes_) world.schedule_crash(ev.pid, ev.at);
  for (const auto& ev : restarts_) world.schedule_restart(ev.pid, ev.at);
}

std::unique_ptr<Schedule> FaultPlan::wrap(
    std::unique_ptr<Schedule> inner) const {
  return std::make_unique<ChaosSchedule>(std::move(inner), stutters_);
}

void FaultPlan::arm(registers::PhasedAbortPolicy& policy,
                    std::string_view group) const {
  for (const auto& storm : storms_) {
    if (!storm.group.empty() && !group.empty() && storm.group != group) {
      continue;
    }
    policy.add_phase({storm.from, storm.to, storm.rate, storm.p_effect});
  }
}

int FaultPlan::arm(registers::RegisterFaultInjector& injector,
                   const World& world, const std::string& msg_prefix,
                   const std::string& hb_prefix) const {
  int armed = 0;
  const auto arm_prefix = [&](const LinkFaultEvent& f,
                              const std::string& prefix) {
    armed += injector.arm_link(world, f.writer, f.reader, prefix, f.kind,
                               f.from, f.to, f.rate);
  };
  for (const auto& f : link_faults_) {
    if (f.part == LinkPart::All || f.part == LinkPart::Msg) {
      arm_prefix(f, msg_prefix);
    }
    if (f.part == LinkPart::All || f.part == LinkPart::Hb1) {
      arm_prefix(f, hb_prefix + "1");
    }
    if (f.part == LinkPart::All || f.part == LinkPart::Hb2) {
      arm_prefix(f, hb_prefix + "2");
    }
  }
  return armed;
}

std::vector<Step> FaultPlan::event_edges() const {
  std::vector<Step> edges;
  for (const auto& ev : crashes_) edges.push_back(ev.at);
  for (const auto& ev : restarts_) edges.push_back(ev.at);
  for (const auto& st : stutters_) {
    edges.push_back(st.from);
    edges.push_back(st.to);
  }
  for (const auto& storm : storms_) {
    edges.push_back(storm.from);
    edges.push_back(storm.to);
  }
  // A permanent fault never closes: its start is the boundary, the
  // degradation itself is part of the stable suffix.
  for (const auto& f : link_faults_) {
    edges.push_back(f.from);
    if (f.to != registers::kFaultForever) edges.push_back(f.to);
  }
  for (const auto& ev : membership_) edges.push_back(ev.at);
  return edges;
}

Step FaultPlan::last_event_step() const {
  const std::vector<Step> edges = event_edges();
  return edges.empty() ? 0 : *std::max_element(edges.begin(), edges.end());
}

std::vector<core::EpochWindow> FaultPlan::epoch_timeline(
    int n, Step run_end) const {
  return core::epoch_windows(n, membership_, run_end);
}

bool FaultPlan::member_at_end(int n, Pid p) const {
  const auto windows = epoch_timeline(n, /*run_end=*/last_event_step() + 1);
  const auto& final_members = windows.back().members;
  return p >= 0 && p < n && final_members[static_cast<std::size_t>(p)];
}

bool FaultPlan::crashed_at_end(Pid p) const {
  // Replay p's crash/restart events in the order the world applies them
  // (ascending step, crash before restart at the same step).
  struct Ev {
    Step at;
    bool restart;
  };
  std::vector<Ev> evs;
  for (const auto& ev : crashes_) {
    if (ev.pid == p) evs.push_back({ev.at, false});
  }
  for (const auto& ev : restarts_) {
    if (ev.pid == p) evs.push_back({ev.at, true});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.at != b.at) return a.at < b.at;
    return !a.restart && b.restart;
  });
  bool crashed = false;
  for (const auto& ev : evs) crashed = !ev.restart;
  return crashed;
}

bool FaultPlan::link_jam_dead(Pid w, Pid r, Step from, Step to) const {
  const auto covered = [&](LinkPart part) {
    return std::any_of(
        link_faults_.begin(), link_faults_.end(),
        [&](const LinkFaultEvent& f) {
          if (f.writer != w || f.reader != r) return false;
          if (f.kind != registers::RegFaultKind::Jam) return false;
          if (f.part != LinkPart::All && f.part != part) return false;
          return f.from <= from &&
                 (f.to == registers::kFaultForever || f.to >= to);
        });
  };
  // A jam admits no coin flip: every operation in its window aborts, so
  // single-window coverage of [from, to) means the register served
  // nothing there. The message register alone carries counters; the
  // heartbeat pair is only dead when BOTH registers are (the channel's
  // Figure 5 judgment survives on one healthy register).
  return covered(LinkPart::Msg) ||
         (covered(LinkPart::Hb1) && covered(LinkPart::Hb2));
}

bool FaultPlan::link_suppressed(Pid w, Pid r, Step from, Step to) const {
  if (link_jam_dead(w, r, from, to)) return true;
  // At this rate an abort flake is a jam for all practical purposes:
  // with the sweep's windows, runs of consecutive aborted rounds long
  // enough to confirm a jam streak recur throughout [from, to).
  constexpr double kFlakeJamRate = 0.9;
  const auto covered = [&](LinkPart part, auto&& qualifies) {
    return std::any_of(
        link_faults_.begin(), link_faults_.end(),
        [&](const LinkFaultEvent& f) {
          if (f.writer != w || f.reader != r) return false;
          if (!qualifies(f)) return false;
          if (f.part != LinkPart::All && f.part != part) return false;
          return f.from <= from &&
                 (f.to == registers::kFaultForever || f.to >= to);
        });
  };
  // A torn, stale or frozen stamp is NEGATIVE evidence, unlike an abort
  // (which Figure 5 treats as fresh): one bad heartbeat register breaks
  // the freshness conjunction, r judges w inactive, and Figure 6 line 52
  // punishes w out of every leadership choice. The same faults on the
  // message register alone are benign for w's progress: torn and stale
  // stamps are caught by checksum/regression evidence and the
  // quarantined counter view is skipped in elections, while a dropped
  // counter is repaired by the periodic refresh.
  const auto corrupting = [](const LinkFaultEvent& f) {
    return f.kind == registers::RegFaultKind::Torn ||
           f.kind == registers::RegFaultKind::Stale ||
           f.kind == registers::RegFaultKind::Drop;
  };
  if (covered(LinkPart::Hb1, corrupting) ||
      covered(LinkPart::Hb2, corrupting)) {
    return true;
  }
  // A near-total abort flake behaves like the jam it almost is: message
  // writes abort, dest = writeDone gates the heartbeats off, and r
  // punishes the silence; on the heartbeat pair the all-abort streak
  // confirms as a jam. Lighter flakes (and any flake on a single
  // heartbeat register) leave enough sound fresh rounds through.
  const auto heavy_flake = [](const LinkFaultEvent& f) {
    return f.kind == registers::RegFaultKind::Flake &&
           f.rate >= kFlakeJamRate;
  };
  return covered(LinkPart::Msg, heavy_flake) ||
         (covered(LinkPart::Hb1, heavy_flake) &&
          covered(LinkPart::Hb2, heavy_flake));
}

bool FaultPlan::link_partitioned(int n, Step from, Step to) const {
  // Below this rate the periodic counter refresh lands often enough to
  // thaw the reader's view well inside the completion-gap bound.
  constexpr double kDropPartitionRate = 0.95;
  return std::any_of(
      link_faults_.begin(), link_faults_.end(),
      [&](const LinkFaultEvent& f) {
        if (f.kind != registers::RegFaultKind::Drop) return false;
        if (f.part != LinkPart::Msg) return false;
        if (f.rate < kDropPartitionRate) return false;
        if (f.writer >= n || f.reader >= n) return false;
        if (crashed_at_end(f.writer) || crashed_at_end(f.reader)) {
          return false;
        }
        return f.from <= from &&
               (f.to == registers::kFaultForever || f.to >= to);
      });
}

std::vector<Pid> FaultPlan::channel_degraded(int n, Step from,
                                             Step to) const {
  std::vector<Pid> degraded;
  if (link_faults_.empty()) return degraded;
  for (Pid p = 0; p < n; ++p) {
    for (Pid q = 0; q < n; ++q) {
      if (q == p || crashed_at_end(q)) continue;
      if (link_suppressed(p, q, from, to)) {
        degraded.push_back(p);
        break;
      }
    }
  }
  return degraded;
}

std::vector<Step> FaultPlan::phase_boundaries(Step run_end) const {
  std::vector<Step> edges{0, run_end};
  for (const Step s : event_edges()) {
    if (s > 0 && s < run_end) edges.push_back(s);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::string FaultPlan::summary() const {
  std::ostringstream out;
  out << "fault plan seed=" << seed_ << "\n";
  for (const auto& ev : crashes_) {
    out << "  crash   p" << ev.pid << " at " << ev.at << "\n";
  }
  for (const auto& ev : restarts_) {
    out << "  restart p" << ev.pid << " at " << ev.at << "\n";
  }
  for (const auto& st : stutters_) {
    out << "  stutter p" << st.pid << " in [" << st.from << ", " << st.to
        << ") period " << st.period << "\n";
  }
  for (const auto& storm : storms_) {
    out << "  storm   group '" << storm.group << "' in [" << storm.from
        << ", " << storm.to << ") rate " << storm.rate << "\n";
  }
  for (const auto& f : link_faults_) {
    out << "  link    p" << f.writer << "->p" << f.reader << " "
        << to_string(f.part) << " " << registers::to_string(f.kind)
        << " in [" << f.from << ", ";
    if (f.to == registers::kFaultForever) {
      out << "forever";
    } else {
      out << f.to;
    }
    out << ") rate " << f.rate << "\n";
  }
  for (const auto& ev : membership_) {
    out << "  view    " << core::describe(ev) << "\n";
  }
  if (empty()) out << "  (no events)\n";
  return out.str();
}

}  // namespace tbwf::sim
