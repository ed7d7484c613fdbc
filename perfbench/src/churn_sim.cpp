// churn_sim: the leader-routed request service under churn, through
// soak::run_sim_soak on n = 4 with Figure 6 Omega-Delta over abortable
// registers. Each soak run draws its FaultPlan (crash/restart storms,
// stutters, degraded-channel windows) from its own seed, and the spare
// seat's candidacy flickers. Clients keep 64 requests in flight,
// submitted in batches of 8 (SimServiceOptions defaults).
//
// Omega-Delta re-election, the msg/hb channels, the abort policy and the
// service do the work; QA and Figure 7 are not on this path.
//
// Step-count metrics come from a fixed set of kExactRuns soak runs, so
// they repeat exactly for a seed; further soak runs fill the wall-clock
// window for the wall metrics, which are medians over soak runs.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/conformance.hpp"
#include "omega/candidate_drivers.hpp"
#include "omega/omega_abortable.hpp"
#include "registers/abort_policy.hpp"
#include "registers/reg_faults.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"
#include "soak/soak.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tbwf::sim::Step;
namespace soak = tbwf::soak;

constexpr int kExactRuns = 8;
constexpr Step kSetupSteps = 20000;
constexpr Step kSlice = 256;  ///< leader sampling period of the omega rung

std::uint64_t soak_seed(std::uint64_t seed, int i) {
  return seed * 1000 + static_cast<std::uint64_t>(i);
}

soak::SimSoakOptions soak_options(std::uint64_t seed) {
  return soak::SimSoakOptions::quick(seed, soak::SimBackend::kAbortable);
}

struct SoakRun {
  soak::SimSoakResult result;
  double wall_s = 0;
  bool ok = false;
};

SoakRun soak_once(std::uint64_t seed, SpanRecorder* rec, int index) {
  SoakRun run;
  Scope span(rec, "soak.run_sim_soak", static_cast<std::uint64_t>(index));
  const auto t0 = Clock::now();
  run.result = soak::run_sim_soak(soak_options(seed));
  run.wall_s = seconds_since(t0);
  const auto& r = run.result;
  run.ok = r.joint.ok() && r.stats.completed <= r.stats.submitted &&
           r.state_value >= static_cast<std::int64_t>(r.stats.completed);
  return run;
}

/// Pooled step-domain figures over a set of soak runs.
struct Pooled {
  soak::ServiceStats stats;
  std::uint64_t steps = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t span = 0;
  std::vector<double> outages;  ///< no-leader window lengths

  void add(const soak::SimSoakResult& r) {
    stats.merge(r.stats);
    steps += r.run_end;
    unavailable += r.availability.total_unavailable();
    span += r.availability.observed_span();
    for (const auto& w : r.availability.windows()) {
      if (w.state == soak::ServiceState::kNoLeader) {
        outages.push_back(static_cast<double>(w.length()));
      }
    }
  }
};

/// The omega rung of the ladder: the same plan, schedule seed, abort
/// policies and channel tuning as run_sim_soak's abortable backend, with
/// the candidates but no service. Sampled every kSlice steps.
struct OmegaRung {
  double ns_per_step = 0;
  double grade_ms = 0;
  std::uint64_t reads = 0, writes = 0, aborts = 0;
  Step stabilize = 0;
  std::vector<double> reelect;
  tbwf::util::Counters links;
};

OmegaRung omega_rung(const tbwf::sim::FaultPlan& plan, std::uint64_t seed,
                     SpanRecorder* rec) {
  namespace sim = tbwf::sim;
  namespace omega = tbwf::omega;
  const soak::SimSoakOptions options = soak_options(seed);
  const int n = options.n;
  sim::World world(n, plan.wrap(std::make_unique<sim::RandomSchedule>(
                          options.seed * 991 + 7)));
  tbwf::registers::PhasedAbortPolicy calm(options.seed * 5 + 2);
  plan.arm(calm);
  tbwf::registers::RegisterFaultInjector injector(options.seed * 13 + 11,
                                                  &calm);
  omega::OmegaAbortable::Options om_options;
  om_options.msg_refresh_period = 8;
  om_options.link_health.suspect_after = 12;
  om_options.link_health.jam_rounds = 8;
  om_options.link_health.heal_rounds = 2;
  om_options.link_health.write_jam_rounds = 64;
  om_options.link_health.probe_backoff = {16, 128, 0};
  omega::OmegaAbortable om(world, &injector, om_options);
  om.install_all();
  plan.arm(injector, world);
  for (sim::Pid p = 0; p < n; ++p) {
    omega::OmegaIO* io = &om.io(p);
    if (p == n - 1) {
      world.spawn(p, "cand", [io](sim::SimEnv& env) {
        return omega::canonical_repeated_candidate(env, *io, 30000, 30000);
      });
    } else {
      world.spawn(p, "cand", [io](sim::SimEnv& env) {
        return omega::permanent_candidate(env, *io);
      });
    }
  }
  plan.install(world);

  // A stable leader: every live permanent candidate names the same live
  // pid. Re-election: steps from a crash of the sitting leader until the
  // next stable leader.
  auto agreed = [&]() -> sim::Pid {
    sim::Pid leader = sim::kNoPid;
    for (sim::Pid p = 0; p < n - 1; ++p) {
      if (world.crashed(p)) continue;
      const sim::Pid l = om.io(p).leader;
      if (l == sim::kNoPid || world.crashed(l)) return sim::kNoPid;
      if (leader != sim::kNoPid && l != leader) return sim::kNoPid;
      leader = l;
    }
    return leader;
  };
  OmegaRung rung;
  sim::Pid sitting = sim::kNoPid;
  Step lost_at = 0;  ///< 0 = no leader crash pending
  bool stable_seen = false;
  std::uint64_t run_ns = 0;
  while (world.now() < options.run_steps) {
    const std::uint64_t t0 = now_ns();
    {
      Scope span(rec, "sim.World::run");
      world.run(kSlice);
    }
    run_ns += now_ns() - t0;
    const sim::Pid l = agreed();
    if (l != sim::kNoPid) {
      if (!stable_seen) rung.stabilize = world.now();
      stable_seen = true;
      if (lost_at != 0) {
        rung.reelect.push_back(static_cast<double>(world.now() - lost_at));
      }
      lost_at = 0;
      sitting = l;
    } else if (sitting != sim::kNoPid && world.crashed(sitting) &&
               lost_at == 0) {
      lost_at = world.now();
    }
  }
  rung.ns_per_step = static_cast<double>(run_ns) /
                     static_cast<double>(world.now());
  rung.reads = world.total_reads();
  rung.writes = world.total_writes();
  rung.aborts = world.total_read_aborts() + world.total_write_aborts();
  om.export_link_metrics(rung.links);

  // Conformance grading of a run this long, timed on the rung's trace
  // (no service log: the timeliness-window analysis is the bulk).
  {
    Scope span(rec, "core.check_chaos_conformance");
    const auto t0 = Clock::now();
    const tbwf::core::OpLog empty(n);
    const auto report = tbwf::core::check_chaos_conformance(
        world.trace(), empty, plan, {}, options.conformance);
    rung.grade_ms = 1e3 * seconds_since(t0);
    (void)report;
  }
  return rung;
}

double link_total(const tbwf::util::Counters& links, const std::string& suffix) {
  double total = 0;
  for (const auto& [name, value] : links.all()) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += static_cast<double>(value);
    }
  }
  return total;
}

}  // namespace

int run_churn_sim(const Args& args) {
  // Setup: construction plus election of a first leader, i.e. a short
  // churn-free soak. Repeated; the median is reported.
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    auto options = soak_options(soak_seed(args.seed, 999));
    options.churn = false;
    options.run_steps = kSetupSteps;
    const auto t0 = Clock::now();
    (void)soak::run_sim_soak(options);
    setups.push_back(seconds_since(t0));
  }

  const double untraced_s = args.trace ? args.seconds / 3 : args.seconds;
  Result result;
  Pooled exact;
  std::vector<double> per_s, p50_us, p99_us, soak_ns;
  std::vector<tbwf::sim::FaultPlan> plans;  ///< of the exact set
  const auto window = Clock::now();
  for (int i = 0; i < kExactRuns || seconds_since(window) < untraced_s; ++i) {
    SoakRun run = soak_once(soak_seed(args.seed, i), nullptr, i);
    const auto& r = run.result;
    result.attempted += r.stats.submitted;
    if (!run.ok) result.failed += r.stats.submitted;
    const double ns_per_step = 1e9 * run.wall_s / static_cast<double>(r.run_end);
    soak_ns.push_back(ns_per_step);
    per_s.push_back(static_cast<double>(r.stats.completed) / run.wall_s);
    p50_us.push_back(static_cast<double>(r.stats.commit.p50()) * ns_per_step / 1e3);
    p99_us.push_back(static_cast<double>(r.stats.commit.p99()) * ns_per_step / 1e3);
    if (i < kExactRuns) {
      exact.add(r);
      plans.push_back(r.plan);
    }
    emit_progress(result.attempted);
  }
  result.check("joint_verdict_and_counts", result.failed == 0);

  const double failed_ppm = 1e6 * static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted);
  emit_metrics("e2e", {
      {"setup_s", median(setups)},
      {"ops_per_s", median(per_s)},
      {"op_p50_us", median(p50_us)},
      {"op_p99_us", median(p99_us)},
      {"ops_per_kstep", 1e3 * static_cast<double>(exact.stats.completed) /
                            static_cast<double>(exact.steps)},
      {"op_p50_steps", static_cast<double>(exact.stats.commit.p50())},
      {"op_p99_steps", static_cast<double>(exact.stats.commit.p99())},
      {"unavailable_ppm", 1e6 * static_cast<double>(exact.unavailable) /
                              static_cast<double>(exact.span)},
      {"failed_ppm", failed_ppm},
      {"peak_rss_mb", peak_rss_mb()},
  });

  if (args.trace) {
    // Traced half: the same soak runs with a span around each call.
    SpanRecorder rec(0);
    std::vector<double> traced_per_s;
    const auto t1 = Clock::now();
    for (int i = 0; i < 2 || seconds_since(t1) < args.seconds / 3; ++i) {
      const SoakRun run = soak_once(soak_seed(args.seed, i), &rec, i);
      traced_per_s.push_back(static_cast<double>(run.result.stats.completed) /
                             run.wall_s);
    }
    // Ladder: the omega rung on the exact set's plans.
    SpanRecorder rung_rec(1);
    std::vector<double> rung_ns, grade_ms, stabilize, reelect;
    std::uint64_t reads = 0, writes = 0, aborts = 0;
    tbwf::util::Counters links;
    for (int i = 0; i < kExactRuns; ++i) {
      const OmegaRung rung =
          omega_rung(plans[static_cast<std::size_t>(i)], soak_seed(args.seed, i),
                     &rung_rec);
      rung_ns.push_back(rung.ns_per_step);
      grade_ms.push_back(rung.grade_ms);
      stabilize.push_back(static_cast<double>(rung.stabilize));
      reelect.insert(reelect.end(), rung.reelect.begin(), rung.reelect.end());
      reads += rung.reads;
      writes += rung.writes;
      aborts += rung.aborts;
      for (const auto& [name, value] : rung.links.all()) links.inc(name, value);
    }
    const double full_ns = median(soak_ns);
    emit_metrics("layers", {
        {"sim.ns_per_step", median(rung_ns)},
        {"sim.abort_ratio", static_cast<double>(aborts) /
                                static_cast<double>(reads + writes)},
        {"soak.ns_per_step", full_ns},
        {"soak.self_ns_per_step", full_ns - median(rung_ns)},
        {"omega.stabilize_steps", median(stabilize)},
        {"omega.reelect_steps_p50", quantile(reelect, 0.5)},
        {"omega.reelect_steps_max", quantile(reelect, 1.0)},
        {"omega.reelections", static_cast<double>(reelect.size())},
        {"chan.abort_rounds", link_total(links, ".abort_rounds")},
        {"chan.write_aborts", link_total(links, ".write_aborts")},
        {"chan.quarantines", link_total(links, ".quarantines")},
        {"chan.recoveries", link_total(links, ".recoveries")},
        {"chan.probes", link_total(links, ".probes")},
        {"core.grade_ms", median(grade_ms)},
        {"svc.route_p99_steps", static_cast<double>(exact.stats.route.p99())},
        {"svc.probes_per_req", static_cast<double>(exact.stats.route_probes) /
                                   static_cast<double>(exact.stats.submitted)},
        {"svc.ack_p50_steps", static_cast<double>(exact.stats.ack.p50())},
        {"svc.outage_p50_steps", quantile(exact.outages, 0.5)},
        {"trace.overhead_pct",
         100.0 * (median(per_s) / median(traced_per_s) - 1.0)},
    });
    const std::string path = args.out_dir + "/trace_churn_sim_" +
                             std::to_string(args.seed) + ".json";
    if (!write_trace(path, {{"churn_sim soak", false, {&rec}},
                            {"churn_sim omega rung", false, {&rung_rec}}})) {
      note("could not write %s", path.c_str());
      result.check("trace_written", false);
    }
  }
  emit_result(result);
  return 0;
}

}  // namespace perfbench
