// Leader service: Omega-Delta as a dynamic leader elector fronting a
// real request router.
//
// Processes join and leave the competition for leadership at their own
// pace (canonical use); one process flickers with growing gaps. The
// example prints the leadership timeline seen by each process AND
// drives the soak harness's leader-routed router (soak::SimLeaderService)
// over the same election: clients route request batches to whoever
// their local LEADER output names, and the printout shows what the
// churned election costs in route/commit latency and outage windows.
// Both implementations run: Figure 3 (atomic registers + activity
// monitors) and Figure 6 (abortable registers).
//
//   ./leader_service [steps] [seed] [--json] [--membership]
//
// --json replaces the human-readable report with one machine-readable
// JSON object (timelines, router stats, outage windows) on stdout.
// --membership reconfigures the group mid-run: p0 (the usual eventual
// leader) is removed from the view at steps/4 and re-admitted at
// steps/2. Its fenced rounds are counted, leadership re-stabilizes
// among the remaining members, and the printout names each epoch.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/membership.hpp"
#include "omega/candidate_drivers.hpp"
#include "omega/omega_abortable.hpp"
#include "omega/omega_registers.hpp"
#include "sim/membership.hpp"
#include "sim/schedule.hpp"
#include "sim/trajectory.hpp"
#include "sim/world.hpp"
#include "soak/sim_service.hpp"

using namespace tbwf;

namespace {

std::vector<sim::ActivitySpec> scenario_specs() {
  return {
      sim::ActivitySpec::timely(8),                 // p0: timely, permanent
      sim::ActivitySpec::timely(8),                 // p1: timely, joins/leaves
      sim::ActivitySpec::growing_flicker(3000, 700),// p2: flaky, permanent
      sim::ActivitySpec::timely(8),                 // p3: never competes
  };
}

/// One backend's run: leadership timelines plus the router's verdict.
struct BackendRun {
  std::string name;
  std::vector<sim::Trajectory<sim::Pid>> leaders;
  sim::Step run_end = 0;
  soak::ServiceStats stats;
  soak::AvailabilityTracker availability;
  std::vector<core::MembershipEvent> membership;  // empty: static group
  std::uint64_t fenced_p0 = 0;
};

/// Drive the shared scenario on one omega backend. p1 joins/leaves
/// canonically and p3 never competes; both still observe leadership.
/// Clients run on p0, p2, p3 -- p1's LEADER view legitimately rests at
/// "?" while it is out of the competition (Definition 5), so routing
/// from it would starve by design, exactly as in the soak harness.
template <class OmegaImpl>
BackendRun drive(const char* name, sim::World& world, OmegaImpl& omega,
                 sim::Step steps,
                 const std::vector<core::MembershipEvent>& membership) {
  BackendRun run;
  run.name = name;
  run.membership = membership;
  const int n = 4;

  // With --membership the permanent candidates follow the view instead:
  // a removed process stops competing and the service fences its tenure.
  sim::MembershipDirector director(n);
  if (!membership.empty()) omega.set_membership(&director);

  omega.install_all();
  if (membership.empty()) {
    world.spawn(0, "cand", [&](sim::SimEnv& env) {
      return omega::permanent_candidate(env, omega.io(0));
    });
    world.spawn(2, "cand", [&](sim::SimEnv& env) {
      return omega::permanent_candidate(env, omega.io(2));
    });
  } else {
    world.spawn(0, "cand", [&](sim::SimEnv& env) {
      return omega::membership_candidate(env, omega.io(0), director);
    });
    world.spawn(2, "cand", [&](sim::SimEnv& env) {
      return omega::membership_candidate(env, omega.io(2), director);
    });
  }
  world.spawn(1, "cand", [&](sim::SimEnv& env) {
    return omega::canonical_repeated_candidate(env, omega.io(1), 30000,
                                               30000);
  });
  world.spawn(3, "cand", [&](sim::SimEnv& env) {
    return omega::never_candidate(env, omega.io(3));
  });

  soak::SimServiceOptions service_options;
  service_options.client_pids = {0, 2, 3};
  soak::SimLeaderService service(
      world,
      [&omega](sim::Pid p) -> const omega::OmegaIO& { return omega.io(p); },
      service_options);
  if (!membership.empty()) {
    service.set_membership(&director);
    director.install(world, membership);
  }
  service.install();

  run.leaders.resize(n);
  for (sim::Pid p = 0; p < n; ++p) {
    run.leaders[p].sample(0, omega.io(p).leader);
    run.leaders[p].attach(world, &omega.io(p).leader);
  }

  world.run(steps);
  run.run_end = world.now();
  service.finish(run.run_end);
  run.stats = service.stats();
  run.availability = service.availability();
  run.fenced_p0 = world.counters().get("membership.fenced.p0");
  return run;
}

void print_human(const BackendRun& run) {
  std::printf("\n[%s] leadership timeline (sampled):\n", run.name.c_str());
  for (std::size_t p = 0; p < run.leaders.size(); ++p) {
    std::printf("  p%zu: ", p);
    int shown = 0;
    for (const auto& [step, value] : run.leaders[p].points()) {
      if (shown++ > 8) {
        std::printf("...");
        break;
      }
      if (value == omega::kNoLeader) {
        std::printf("[%llu:?] ", static_cast<unsigned long long>(step));
      } else {
        std::printf("[%llu:p%d] ", static_cast<unsigned long long>(step),
                    value);
      }
    }
    const auto final = run.leaders[p].final_value();
    std::printf(" => final %s (stable since %llu / %llu)\n",
                final == omega::kNoLeader
                    ? "?"
                    : std::string("p").append(std::to_string(final)).c_str(),
                static_cast<unsigned long long>(run.leaders[p].last_change()),
                static_cast<unsigned long long>(run.run_end));
  }
  std::printf("  router: %s\n", run.stats.summary().c_str());
  std::printf("  availability: %s\n", run.availability.summary().c_str());
  if (!run.membership.empty()) {
    std::printf("  epochs:\n");
    for (const auto& w : core::epoch_windows(
             static_cast<int>(run.leaders.size()), run.membership,
             run.run_end)) {
      std::string members;
      for (std::size_t p = 0; p < w.members.size(); ++p) {
        if (!w.members[p]) continue;
        if (!members.empty()) members += ",";
        members.append("p").append(std::to_string(p));
      }
      std::printf("    epoch %u [%llu,%llu) members={%s}\n", w.epoch,
                  static_cast<unsigned long long>(w.from),
                  static_cast<unsigned long long>(w.to), members.c_str());
    }
    std::printf("  fenced p0 rounds at the boundary: %llu\n",
                static_cast<unsigned long long>(run.fenced_p0));
  }
}

void print_json_histogram(const char* key, const soak::LogHistogram& h,
                          const char* trail) {
  std::printf("\"%s\":{\"count\":%llu,\"p50\":%llu,\"p99\":%llu,"
              "\"p999\":%llu,\"max\":%llu}%s",
              key, static_cast<unsigned long long>(h.count()),
              static_cast<unsigned long long>(h.p50()),
              static_cast<unsigned long long>(h.p99()),
              static_cast<unsigned long long>(h.p999()),
              static_cast<unsigned long long>(h.max()), trail);
}

void print_json(const std::vector<BackendRun>& runs, sim::Step steps,
                std::uint64_t seed) {
  std::printf("{\"example\":\"leader_service\",\"steps\":%llu,"
              "\"seed\":%llu,\"backends\":[",
              static_cast<unsigned long long>(steps),
              static_cast<unsigned long long>(seed));
  for (std::size_t b = 0; b < runs.size(); ++b) {
    const BackendRun& run = runs[b];
    std::printf("%s{\"name\":\"%s\",\"run_end\":%llu,\"timelines\":[",
                b ? "," : "", run.name.c_str(),
                static_cast<unsigned long long>(run.run_end));
    for (std::size_t p = 0; p < run.leaders.size(); ++p) {
      const auto final = run.leaders[p].final_value();
      std::printf("%s{\"pid\":%zu,\"final\":%d,\"last_change\":%llu,"
                  "\"points\":[",
                  p ? "," : "", p, static_cast<int>(final),
                  static_cast<unsigned long long>(
                      run.leaders[p].last_change()));
      bool first = true;
      for (const auto& [step, value] : run.leaders[p].points()) {
        std::printf("%s[%llu,%d]", first ? "" : ",",
                    static_cast<unsigned long long>(step),
                    static_cast<int>(value));
        first = false;
      }
      std::printf("]}");
    }
    std::printf("],\"router\":{\"submitted\":%llu,\"completed\":%llu,"
                "\"route_probes\":%llu,",
                static_cast<unsigned long long>(run.stats.submitted),
                static_cast<unsigned long long>(run.stats.completed),
                static_cast<unsigned long long>(run.stats.route_probes));
    print_json_histogram("route", run.stats.route, ",");
    print_json_histogram("ack", run.stats.ack, ",");
    print_json_histogram("commit", run.stats.commit, "},");
    std::printf("\"availability\":{\"unavailable_fraction\":%.6f,"
                "\"windows\":[",
                run.availability.unavailable_fraction());
    bool first = true;
    for (const auto& w : run.availability.windows()) {
      std::printf("%s{\"from\":%llu,\"to\":%llu,\"state\":\"%s\"}",
                  first ? "" : ",", static_cast<unsigned long long>(w.from),
                  static_cast<unsigned long long>(w.to),
                  soak::to_string(w.state));
      first = false;
    }
    std::printf("]}}");
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  sim::Step steps = 3000000ULL;
  std::uint64_t seed = 3;
  bool json = false;
  bool membership = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--membership") == 0) {
      membership = true;
    } else if (positional == 0) {
      steps = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    } else {
      seed = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    }
  }
  const int n = 4;

  // --membership: remove p0 a quarter in, re-admit it at the midpoint.
  std::vector<core::MembershipEvent> events;
  if (membership) {
    events = {{core::MembershipKind::kLeave, 0, -1, steps / 4},
              {core::MembershipKind::kJoin, 0, -1, steps / 2}};
  }

  std::vector<BackendRun> runs;
  {
    sim::World world(
        n, std::make_unique<sim::TimelinessSchedule>(scenario_specs(), seed));
    omega::OmegaRegisters omega(world);
    runs.push_back(drive("Figure 3: atomic registers + activity monitors",
                         world, omega, steps, events));
  }
  {
    sim::World world(
        n, std::make_unique<sim::TimelinessSchedule>(scenario_specs(), seed));
    registers::ProbabilisticAbortPolicy policy(seed, 0.6, 0.6, 0.5);
    omega::OmegaAbortable omega(world, &policy);
    // The abortable stack stabilizes more slowly; give it double time.
    runs.push_back(drive("Figure 6: abortable registers", world, omega,
                         steps * 2, events));
  }

  if (json) {
    print_json(runs, steps, seed);
    return 0;
  }
  for (const BackendRun& run : runs) print_human(run);
  std::printf("\nnote: the flaky p2 competes forever, yet a timely process "
              "ends up leading --\nthe graceful-degradation property of "
              "Omega-Delta (Definition 5 / Theorem 7). The router rides the "
              "same\nelection: route cost spikes exactly where the timeline "
              "shows \"?\" views.\n");
  return 0;
}
