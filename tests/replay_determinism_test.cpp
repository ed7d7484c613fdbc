// Deterministic-replay regression: a run is a pure function of its
// (schedule seed, fault plan, configuration). Two runs with identical
// inputs must produce bit-identical traces -- Trace::digest() covers
// every step and every fault event -- and this must hold per
// configuration with the scan cache on and off. (On vs off are NOT
// compared: caching legitimately changes how many register operations
// the omega tasks issue, hence the schedule of steps. What replay
// guarantees is that each configuration is self-deterministic.)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "core/tbwf.hpp"
#include "omega/candidate_drivers.hpp"
#include "omega/omega_registers.hpp"
#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "sim/faultplan.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"
#include "soak/soak.hpp"
#include "verify/artifact.hpp"
#include "verify/explorer.hpp"
#include "zoo/ledger.hpp"
#include "zoo/zoo_harness.hpp"

namespace tbwf {
namespace {

using qa::Counter;
using sim::FaultPlan;
using sim::Pid;
using sim::SimEnv;
using sim::Step;
using sim::Task;
using sim::World;

constexpr int kN = 3;

Task forever_inc(SimEnv& env, core::TbwfObject<Counter>& obj) {
  for (;;) (void)co_await obj.invoke(env, Counter::Op{1});
}

/// One full chaos run of the TBWF stack; returns the trace digest.
std::uint64_t chaos_digest(std::uint64_t seed) {
  FaultPlan::GenOptions opt;
  opt.n = kN;
  opt.horizon = 150000;
  opt.quiet_tail = 0.5;
  opt.max_crash_cycles = 2;
  opt.max_stutters = 2;
  opt.max_storms = 0;
  const FaultPlan plan = FaultPlan::generate(seed, opt);

  World world(kN, plan.wrap(std::make_unique<sim::RandomSchedule>(
                      seed * 977 + 13)));
  core::TbwfSystem<Counter> sys(world, 0,
                                core::OmegaBackend::AtomicRegisters);
  for (Pid p = 0; p < kN; ++p) {
    world.spawn(p, "w", [&](SimEnv& env) {
      return forever_inc(env, sys.object());
    });
  }
  plan.install(world);
  world.run(300000);
  return world.trace().digest();
}

TEST(ReplayDeterminism, ChaosRunsReplayBitIdentically) {
  for (const std::uint64_t seed : {3u, 17u}) {
    EXPECT_EQ(chaos_digest(seed), chaos_digest(seed)) << "seed " << seed;
  }
}

TEST(ReplayDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(chaos_digest(3), chaos_digest(17));
}

/// Omega-on-registers election run with the scan cache toggled.
std::uint64_t omega_digest(bool scan_cache, std::uint64_t seed) {
  const int n = 3;
  auto specs = sim::uniform_specs(n, sim::ActivitySpec::timely(4 * n));
  World world(n, std::make_unique<sim::TimelinessSchedule>(specs, seed));
  omega::OmegaRegisters om(world);
  om.set_scan_cache(scan_cache);
  om.install_all();
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "cand", [&, p](SimEnv& env) {
      return omega::permanent_candidate(env, om.io(p));
    });
  }
  world.run(200000);
  return world.trace().digest();
}

TEST(ReplayDeterminism, ScanCacheConfigsAreEachSelfDeterministic) {
  EXPECT_EQ(omega_digest(false, 5), omega_digest(false, 5));
  EXPECT_EQ(omega_digest(true, 5), omega_digest(true, 5));
}

/// The soak harness extends the replay property all the way up: one
/// seed fixes not just the trace but the SLO verdict -- every measured
/// number the budgets grade -- and the joint service verdict.
TEST(ReplayDeterminism, SoakSloVerdictsReplayIdentically) {
  for (const std::uint64_t seed : {1ULL, 9ULL}) {
    const soak::SimSoakResult a =
        soak::run_sim_soak(soak::SimSoakOptions::quick(seed));
    const soak::SimSoakResult b =
        soak::run_sim_soak(soak::SimSoakOptions::quick(seed));
    EXPECT_EQ(a.trace_digest, b.trace_digest) << "seed " << seed;
    EXPECT_EQ(a.stats.submitted, b.stats.submitted);
    EXPECT_EQ(a.stats.completed, b.stats.completed);
    EXPECT_EQ(a.stats.route_probes, b.stats.route_probes);
    EXPECT_EQ(a.stats.commit.p999(), b.stats.commit.p999());
    EXPECT_EQ(a.availability.total_unavailable(),
              b.availability.total_unavailable());
    EXPECT_EQ(a.slo.ok, b.slo.ok);
    EXPECT_EQ(a.slo.violations, b.slo.violations);
    EXPECT_EQ(a.joint.ok(), b.joint.ok());
    EXPECT_EQ(a.state_value, b.state_value);
  }
}

TEST(ReplayDeterminism, SoakSeedsDiverge) {
  EXPECT_NE(soak::run_sim_soak(soak::SimSoakOptions::quick(1)).trace_digest,
            soak::run_sim_soak(soak::SimSoakOptions::quick(9)).trace_digest);
}

// -- zoo counterexample artifacts -----------------------------------------

/// The zoo's canonical counterexample generator: a WfLedger whose puts
/// label with a process-local timestamp instead of a collected one.
/// When p1 runs strictly after p0, its put(7, 30) is ranked below p0's
/// second put, and its get(7) returns 20 where real time forces 30. The
/// artifact the explorer emits for that violation must replay
/// bit-identically -- twice, and through the on-disk save/load round
/// trip, because what CI uploads is exactly what a developer replays
/// locally.
TEST(ReplayDeterminism, ZooCounterexampleArtifactReplaysBitIdentically) {
  using L = zoo::LedgerType;
  using Spec = zoo::WfLedger<>;

  zoo::ZooExploreConfig<L> config;
  config.n = 2;
  config.ops.resize(2);
  config.ops[0] = {L::put(7, 10), L::put(7, 20)};
  config.ops[1] = {L::put(7, 30), L::get(7)};

  const typename verify::ZooExploredRun<L, Spec>::Maker maker =
      [](sim::World& w, const L::State& init) {
        auto obj = std::make_unique<Spec>(w, init);
        obj->set_mutations(zoo::LedgerMutations{.stale_ts = true});
        return obj;
      };
  const verify::RunFactory factory =
      verify::make_zoo_run_factory<L, Spec>(config, maker);

  verify::ExplorerOptions opt;
  opt.name = "replay-zoo-ledger-stalets";
  opt.max_depth = 500;
  opt.max_runs = 60000;
  const verify::ExploreResult result = verify::Explorer(factory, opt).explore();
  // Search pin: exact ExploreStats of this configuration. They move only
  // if the explorer's search itself changes (docs/VERIFY.md).
  EXPECT_EQ(result.stats.summary(),
            "runs=1 steps=65 distinct_states=11 sleep_skips=0 "
            "preemption_skips=0 state_prunes=0");
  EXPECT_EQ(result.artifact.schedule.size(), 10u);
  EXPECT_EQ(result.artifact.trace_digest, 0x330bdccf20c51d2eull);
  ASSERT_TRUE(result.violation_found) << result.summary();
  ASSERT_FALSE(result.artifact.schedule.empty());

  // Round-trip the artifact through its file format first; all replays
  // below run from the LOADED copy, not the in-memory original.
  const std::string path = ::testing::TempDir() + "zoo_stalets_cex.txt";
  ASSERT_TRUE(result.artifact.save(path));
  const auto loaded = verify::CounterexampleArtifact::load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->schedule, result.artifact.schedule);
  EXPECT_EQ(loaded->trace_digest, result.artifact.trace_digest);
  EXPECT_EQ(loaded->world_seed, result.artifact.world_seed);
  EXPECT_EQ(loaded->n, 2);

  for (int round = 0; round < 2; ++round) {
    auto run = factory(
        std::make_unique<sim::ScriptedSchedule>(loaded->schedule));
    run->world().run(static_cast<Step>(loaded->schedule.size()));
    EXPECT_EQ(run->world().trace().digest(), loaded->trace_digest)
        << "replay round " << round;
    const std::string verdict = run->check();
    EXPECT_NE(verdict.find("VIOLATION"), std::string::npos) << verdict;
  }
}

}  // namespace
}  // namespace tbwf
