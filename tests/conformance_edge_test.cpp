// Edge cases of the chaos conformance checker: empty traces, a single
// process running solo (the k = 0 obstruction floor), runs where every
// process ends up crashed, and runs whose timeliness exists only in the
// stable suffix. The checker must neither crash nor silently award a
// guarantee no one earned.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/batch_log.hpp"
#include "core/conformance.hpp"
#include "core/tbwf.hpp"
#include "qa/qa_universal.hpp"
#include "qa/sequential_type.hpp"
#include "registers/reg_faults.hpp"
#include "rt/rt_faults.hpp"
#include "rt/rt_trace.hpp"
#include "sim/faultplan.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"
#include "zoo/ledger.hpp"
#include "zoo/zoo_types.hpp"

namespace tbwf {
namespace {

using qa::Counter;
using sim::FaultPlan;
using sim::Pid;
using sim::SimEnv;
using sim::Step;
using sim::Task;
using sim::World;

bool mentions(const core::ConformanceReport& report, const char* needle) {
  for (const auto& v : report.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(ConformanceEdge, EmptyTraceIsInconclusiveUnderRealBounds) {
  World world(2, std::make_unique<sim::RoundRobinSchedule>());
  world.run(0);
  const FaultPlan plan;
  core::OpLog log(2);
  const auto report = core::check_chaos_conformance(
      world.trace(), log, plan, {0, 1}, core::ConformanceOptions{});
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(mentions(report, "inconclusive")) << report.summary();
}

TEST(ConformanceEdge, EmptyTraceAtZeroBoundsDemandsNothing) {
  World world(2, std::make_unique<sim::RoundRobinSchedule>());
  world.run(0);
  const FaultPlan plan;
  core::OpLog log(2);
  core::ConformanceOptions opt;
  opt.stabilization = 0;
  opt.min_suffix = 0;
  opt.max_completion_gap = 0;
  const auto report = core::check_chaos_conformance(world.trace(), log,
                                                    plan, {0, 1}, opt);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_TRUE(report.suffix_timely.empty());
}

TEST(ConformanceEdge, SoloRunnerIsWaitFreeAtTheObstructionFloor) {
  // k = 0 timely peers beyond itself: a lone stepper must still make
  // progress (Theorem 14's obstruction floor). Solo QA operations never
  // abort, so the checker's solo path must come back green.
  const int n = 3;
  World world(n, std::make_unique<sim::RandomSchedule>(11));
  qa::QaUniversal<Counter> obj(world, 0);
  core::OpLog log(n);
  world.spawn(0, "solo", [&](SimEnv& env) -> Task {
    for (;;) {
      ++log.started[0];
      const auto res = co_await obj.invoke(env, Counter::Op{1});
      if (res.ok()) log.completions[0].push_back(env.now());
    }
  });
  world.run(30000);

  const FaultPlan plan;
  core::ConformanceOptions opt;
  opt.timely_bound = 4;
  opt.stabilization = 2000;
  opt.min_suffix = 10000;
  opt.max_completion_gap = 2000;
  const auto report = core::check_chaos_conformance(world.trace(), log,
                                                    plan, {0}, opt);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.suffix_timely, std::vector<Pid>{0});
  EXPECT_GT(log.completed(0), 0u);
}

TEST(ConformanceEdge, AllCrashedRunDemandsNothingAtZeroBounds) {
  const int n = 3;
  FaultPlan plan;
  plan.crash(0, 5000).crash(1, 5200).crash(2, 5400);
  World world(n, plan.wrap(std::make_unique<sim::RandomSchedule>(3)));
  core::TbwfSystem<Counter> sys(world, 0,
                                core::OmegaBackend::AtomicRegisters);
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "w", [&](SimEnv& env) -> Task {
      for (;;) (void)co_await sys.object().invoke(env, Counter::Op{1});
    });
  }
  plan.install(world);
  world.run(60000);  // halts once everyone is crashed

  core::OpLog log = sys.object().log();
  core::ConformanceOptions opt;
  opt.stabilization = 0;
  opt.min_suffix = 0;
  const auto report = core::check_chaos_conformance(
      world.trace(), log, plan, /*issuing=*/{}, opt);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_TRUE(report.suffix_timely.empty());
}

TEST(ConformanceEdge, AllCrashedRunIsInconclusiveUnderRealBounds) {
  // Same run graded with real suffix demands: the checker must flag the
  // missing stable suffix instead of passing silently.
  const int n = 3;
  FaultPlan plan;
  plan.crash(0, 5000).crash(1, 5200).crash(2, 5400);
  World world(n, plan.wrap(std::make_unique<sim::RandomSchedule>(3)));
  core::TbwfSystem<Counter> sys(world, 0,
                                core::OmegaBackend::AtomicRegisters);
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "w", [&](SimEnv& env) -> Task {
      for (;;) (void)co_await sys.object().invoke(env, Counter::Op{1});
    });
  }
  plan.install(world);
  world.run(60000);

  const auto report = core::check_chaos_conformance(
      world.trace(), sys.object().log(), plan, {},
      core::ConformanceOptions{});
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(mentions(report, "inconclusive")) << report.summary();
}

TEST(ConformanceEdge, TimelinessOnlyInTheSuffixStillEarnsTheVerdict) {
  // p0 stutters (one step every 200) through the first 60k steps --
  // untimely by any bound -- then runs cleanly. Definition 1 is graded
  // over the stable suffix, so p0 still earns (and must honor) the
  // wait-free verdict there.
  const int n = 3;
  FaultPlan plan;
  plan.stutter(0, 0, 60000, 200);
  World world(n, plan.wrap(std::make_unique<sim::RandomSchedule>(29)));
  core::TbwfSystem<Counter> sys(world, 0,
                                core::OmegaBackend::AtomicRegisters);
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "w", [&](SimEnv& env) -> Task {
      for (;;) (void)co_await sys.object().invoke(env, Counter::Op{1});
    });
  }
  plan.install(world);
  world.run(300000);

  core::ConformanceOptions opt;
  opt.timely_bound = 64;
  opt.stabilization = 40000;
  opt.max_completion_gap = 100000;
  opt.min_suffix = 100000;
  const auto report = core::check_chaos_conformance(
      world.trace(), sys.object().log(), plan, {0, 1, 2}, opt);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_NE(std::find(report.suffix_timely.begin(),
                      report.suffix_timely.end(), 0),
            report.suffix_timely.end())
      << report.summary();

  // ...and the per-phase diagnostics prove p0 was NOT timely early on.
  bool untimely_early = false;
  for (const auto& w : report.windows) {
    if (w.to <= 60000 && w.realized_bound[0] != sim::Trace::kNever &&
        w.realized_bound[0] > opt.timely_bound) {
      untimely_early = true;
    }
  }
  EXPECT_TRUE(untimely_early) << report.summary();
}

// -- batch-epoch grading of non-QA histories --------------------------------
//
// The per-epoch checker was written for the batched engine, but it must
// degrade gracefully on runs that never touched it: a register-based
// specialist commits no batches and announces nothing, so there is
// nothing to judge -- the verdict is a vacuous pass, never a crash and
// never an invented violation.

TEST(ConformanceEdgeBatch, EmptyBatchLogOverAnEmptyWindowDemandsNothing) {
  const core::BatchLog log;
  const core::BatchConformanceOptions opt;  // suffix_from = run_end = 0
  const auto report = core::check_batch_conformance(log, opt);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.suffix_commits, 0u);
  EXPECT_EQ(report.judged_announces, 0u);
}

TEST(ConformanceEdgeBatch, EmptyBatchLogOverARealWindowIsVacuouslyClean) {
  const core::BatchLog log;
  core::BatchConformanceOptions opt;
  opt.suffix_from = 100000;
  opt.run_end = 300000;
  opt.timely = {0, 1};
  const auto report = core::check_batch_conformance(log, opt);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.judged_announces, 0u);
  EXPECT_EQ(report.mean_batch_size, 0.0);
}

TEST(ConformanceEdgeBatch, SpecialistOnlyRunGradesVacuouslyPerEpoch) {
  // A zoo specialist's history is graded per-op over its real
  // completion log; the per-epoch grading of the same run sees an empty
  // batch log on the same stable-suffix window and must agree there is
  // nothing to flag.
  const int n = 2;
  World world(n, std::make_unique<sim::RandomSchedule>(11));
  zoo::WfLedger<> ledger(world, zoo::LedgerType::State{});
  core::OpLog log(n);
  struct Worker {
    static Task run(SimEnv& env, zoo::WfLedger<>& ledger, core::OpLog& log) {
      const Pid p = env.pid();
      for (std::int64_t v = 0;; ++v) {
        ++log.started[p];
        (void)co_await ledger.invoke(env, zoo::LedgerType::put(p, v));
        log.completions[p].push_back(env.now());
      }
    }
  };
  for (Pid p = 0; p < n; ++p) {
    world.spawn(p, "w", [&](SimEnv& env) {
      return Worker::run(env, ledger, log);
    });
  }
  // Modest budget: the ledger's append-only logs make each put O(log
  // size), so long runs are quadratic in wall-clock.
  world.run(30000);

  core::ConformanceOptions copt;
  copt.timely_bound = 64;
  copt.stabilization = 5000;
  copt.max_completion_gap = 5000;
  copt.min_suffix = 10000;
  const auto per_op = core::check_chaos_conformance(world.trace(), log,
                                                    FaultPlan{}, {0, 1}, copt);
  EXPECT_TRUE(per_op.ok) << per_op.summary();

  core::BatchConformanceOptions bopt;
  bopt.suffix_from = per_op.suffix_from;
  bopt.run_end = per_op.run_end;
  bopt.timely = per_op.suffix_timely;
  const auto per_epoch =
      core::check_batch_conformance(core::BatchLog{}, bopt);
  EXPECT_TRUE(per_epoch.ok) << per_epoch.summary();
  EXPECT_EQ(per_epoch.suffix_commits, 0u);
  EXPECT_EQ(per_epoch.judged_announces, 0u);
}

// -- golden reports: the sim and rt front-ends side by side -----------------
//
// Hand-built traces whose full summary() text is pinned. Both backends
// grade through one kernel, but each front-end keeps its own notion of
// a realized bound and its own exclusions; these cases fix the
// differences so a refactor cannot blur them.

/// A sim trace from a string of step owners: "0110" = p0, p1, p1, p0.
sim::Trace owner_trace(int n, const std::string& owners) {
  sim::Trace trace(n);
  for (const char c : owners) trace.record_step(c - '0');
  return trace;
}

/// An rt trace snapshot: tid t is active at every stamp in stamps[t].
rt::RtTraceSnapshot stamp_trace(
    const std::vector<std::vector<std::uint64_t>>& stamps,
    std::uint64_t run_end_ns) {
  rt::RtTraceSnapshot trace;
  trace.per_tid.resize(stamps.size());
  trace.dropped.assign(stamps.size(), 0);
  for (std::size_t t = 0; t < stamps.size(); ++t) {
    for (const std::uint64_t at : stamps[t]) {
      rt::RtEvent ev;
      ev.at_ns = at;
      ev.tid = static_cast<std::uint32_t>(t);
      trace.per_tid[t].push_back(ev);
    }
  }
  trace.run_end_ns = run_end_ns;
  return trace;
}

/// Stamps from `from` to `to` inclusive, `every` apart.
std::vector<std::uint64_t> every(std::uint64_t from, std::uint64_t to,
                                 std::uint64_t step) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t t = from; t <= to; t += step) out.push_back(t);
  return out;
}

core::ConformanceOptions golden_sim_options(Step timely_bound,
                                            Step min_suffix) {
  core::ConformanceOptions opt;
  opt.timely_bound = timely_bound;
  opt.stabilization = 0;
  opt.min_suffix = min_suffix;
  opt.max_completion_gap = 5;
  return opt;
}

core::RtConformanceOptions golden_rt_options(std::uint64_t timely_bound_ns,
                                             std::uint64_t min_suffix_ns) {
  core::RtConformanceOptions opt;
  opt.timely_bound_ns = timely_bound_ns;
  opt.stabilization_ns = 0;
  opt.min_suffix_ns = min_suffix_ns;
  opt.max_completion_gap_ns = 5;
  return opt;
}

TEST(ConformanceEdgeGolden, SimBoundCountsStepsRtBoundCountsNanoseconds) {
  // The same activity pattern on both backends: active at 5, 7, 9 of a
  // run ending at 10, the other party everywhere else. Sim's bound is
  // the longest run of foreign steps plus one (the 5-step lead-in makes
  // it 6); rt's is the longest ns gap with the window edges counted (the
  // lead-in is 5 ns). At bound 5 only the rt thread is timely.
  const auto sim_report = core::check_chaos_conformance(
      owner_trace(2, "1111101010"), core::OpLog(2), FaultPlan{}, {},
      golden_sim_options(5, 0));
  EXPECT_EQ(sim_report.summary(),
            "conformance plan seed=0 run_end=10 suffix_from=0 "
            "suffix_timely={p1} OK\n"
            "  window [0, 10) bounds: p0=6 p1=2\n");

  const auto rt_report = core::check_rt_conformance(
      stamp_trace({{5, 7, 9}, {0, 1, 2, 3, 4, 6, 8}}, 10), rt::RtFaultPlan{},
      golden_rt_options(5, 0));
  EXPECT_EQ(rt_report.summary(),
            "rt conformance plan seed=0 grade=none run_end=10ns "
            "suffix_from=0ns timely={t0,t1} issuing={} OK\n"
            "  suffix bounds: t0=5ns t1=2ns\n");
}

TEST(ConformanceEdgeGolden, SimPartitionStillDemandsSoloProgressRtJamNothing) {
  // p0 runs solo and never completes. A silent message-register drop on
  // the live pair voids wait- and lock-freedom, but the sim checker
  // still holds the solo runner to obstruction-freedom.
  FaultPlan partition(7);
  partition.link_fault(0, 1, sim::LinkPart::Msg, registers::RegFaultKind::Drop,
                       0, registers::kFaultForever);
  const auto sim_report = core::check_chaos_conformance(
      owner_trace(2, std::string(20, '0')), core::OpLog(2), partition, {0, 1},
      golden_sim_options(4, 10));
  EXPECT_EQ(sim_report.summary(),
            "conformance plan seed=7 run_end=20 suffix_from=0 "
            "suffix_timely={p0} (link partitioned) VIOLATED\n"
            "  window [0, 20) bounds: p0=1 p1=inf\n"
            "  VIOLATION: plan seed=7: obstruction-freedom: p0 runs solo in "
            "the suffix but never completes\n");

  // The rt twin: a jam over the whole suffix demands nothing at all and
  // grades none, solo runner included.
  rt::RtFaultPlan jam(7);
  jam.reg_fault(registers::RegFaultKind::Jam, 0,
                rt::RtAbortInjector::kForeverNs);
  rt::RtTraceSnapshot trace = stamp_trace({every(0, 20, 1), {}}, 20);
  trace.per_tid[0].front().kind = rt::RtEventKind::kOpStart;
  const auto rt_report =
      core::check_rt_conformance(trace, jam, golden_rt_options(4, 10));
  EXPECT_EQ(rt_report.summary(),
            "rt conformance plan seed=7 grade=none (medium jammed) "
            "run_end=20ns suffix_from=0ns timely={t0} issuing={t0} OK\n"
            "  suffix bounds: t0=1ns t1=inf\n");

  // Without the jam the same solo runner owes every demand at once.
  const auto unjammed = core::check_rt_conformance(
      trace, rt::RtFaultPlan(7), golden_rt_options(4, 10));
  EXPECT_EQ(unjammed.summary(),
            "rt conformance plan seed=7 grade=wait-free run_end=20ns "
            "suffix_from=0ns timely={t0} issuing={t0} VIOLATED\n"
            "  suffix bounds: t0=1ns t1=inf\n"
            "  VIOLATION: rt plan seed=7: wait-freedom: t0 is timely in "
            "the suffix (bound 1ns) but its completion gap 20ns exceeds "
            "5ns\n"
            "  VIOLATION: rt plan seed=7: lock-freedom: some issuing "
            "thread is timely but the merged completion gap 20ns exceeds "
            "5ns\n"
            "  VIOLATION: rt plan seed=7: obstruction-freedom: t0 runs "
            "solo in the suffix but never completes\n");
}

TEST(ConformanceEdgeGolden, SimDropsCrashedPidsOnlyFromTheWholeRunTimelySet) {
  // p2 leaves at 10, p1 crashes at 20 by the plan; the hand-built trace
  // records p1 stepping to the end and its crash there. The epoch that
  // holds the crash still counts p1 timely; the whole-run suffix does not.
  FaultPlan plan(3);
  plan.leave(2, 10).crash(1, 20);
  std::string owners;
  for (int i = 0; i < 20; ++i) owners += "01";
  sim::Trace trace = owner_trace(3, owners);
  trace.record_crash(1);
  const auto report = core::check_chaos_conformance(
      trace, core::OpLog(3), plan, {}, golden_sim_options(4, 10));
  EXPECT_EQ(report.summary(),
            "conformance plan seed=3 run_end=40 suffix_from=20 "
            "suffix_timely={p0} OK\n"
            "  window [0, 10) bounds: p0=2 p1=2 p2=inf\n"
            "  window [10, 20) bounds: p0=2 p1=2 p2=inf\n"
            "  window [20, 40) bounds: p0=2 p1=2 p2=inf\n"
            "  epoch 0 [0, 10) members={p0,p1,p2} suffix_from=0 "
            "timely={p0,p1}\n"
            "  epoch 1 [10, 40) members={p0,p1} suffix_from=20 "
            "timely={p0,p1}\n");
}

TEST(ConformanceEdgeGolden, RtFlagsKilledTidsActivityUnlessItsClockLied) {
  // t1 is killed for good at 10 yet keeps stamping: a zombie worker.
  rt::RtFaultPlan plan(5);
  plan.kill(1, 10);
  const rt::RtTraceSnapshot trace =
      stamp_trace({every(0, 30, 2), every(0, 30, 2)}, 30);
  const auto zombie =
      core::check_rt_conformance(trace, plan, golden_rt_options(4, 10));
  EXPECT_EQ(zombie.summary(),
            "rt conformance plan seed=5 grade=none run_end=30ns "
            "suffix_from=10ns timely={t0,t1} issuing={} VIOLATED\n"
            "  suffix bounds: t0=2ns t1=2ns\n"
            "  VIOLATION: rt plan seed=5: t1 is permanently killed by the "
            "plan but has 11 suffix events (zombie worker)\n");

  // The same stamps from a skewed clock carry no such blame, and earn t1
  // no timely verdict either.
  plan.clock_fault(rt::RtClockFaultKind::Skew, 1, 0,
                   rt::RtClockFaultEvent::kForeverNs, 1);
  const auto skewed =
      core::check_rt_conformance(trace, plan, golden_rt_options(4, 10));
  EXPECT_EQ(skewed.summary(),
            "rt conformance plan seed=5 grade=none clock-degraded={t1} "
            "run_end=30ns suffix_from=10ns timely={t0} issuing={} OK\n"
            "  suffix bounds: t0=2ns t1=2ns\n");
}

TEST(ConformanceEdgeGolden, RtEpochWithARingOverflowIsInconclusive) {
  // t2 leaves at 50. t0's ring dropped its oldest events: what is left
  // starts at 30, inside epoch 0's sub-suffix but before epoch 1's.
  rt::RtFaultPlan plan(9);
  plan.leave(2, 50);
  rt::RtTraceSnapshot trace = stamp_trace(
      {every(30, 100, 10), every(0, 100, 10), every(0, 40, 10)}, 100);
  trace.dropped[0] = 4;
  const auto report =
      core::check_rt_conformance(trace, plan, golden_rt_options(10, 10));
  EXPECT_EQ(report.summary(),
            "rt conformance plan seed=9 grade=none run_end=100ns "
            "suffix_from=50ns timely={t0,t1} issuing={} OK\n"
            "  suffix bounds: t0=10ns t1=10ns t2=inf\n"
            "  epoch 0 [0ns, 50ns) members={t0,t1,t2} inconclusive "
            "(sub-suffix too short)\n"
            "  epoch 1 [50ns, 100ns) members={t0,t1} suffix_from=50ns "
            "timely={t0,t1}\n");
}

TEST(ConformanceEdgeGolden, BothBackendsWordEveryDemandTheSameWay) {
  // Two issuing parties that complete once, early; the second leaves at
  // 20. Epoch 0 holds both to wait-freedom, the whole-run suffix holds
  // the remaining member to it and the merged stream to lock-freedom.
  FaultPlan plan(11);
  plan.leave(1, 20);
  std::string owners;
  for (int i = 0; i < 20; ++i) owners += "01";
  core::OpLog log(2);
  log.completions[0] = {3};
  log.completions[1] = {4};
  const auto sim_report = core::check_chaos_conformance(
      owner_trace(2, owners), log, plan, {0, 1}, golden_sim_options(4, 10));
  EXPECT_EQ(sim_report.summary(),
            "conformance plan seed=11 run_end=40 suffix_from=20 "
            "suffix_timely={p0} VIOLATED\n"
            "  window [0, 20) bounds: p0=2 p1=2\n"
            "  window [20, 40) bounds: p0=2 p1=2\n"
            "  epoch 0 [0, 20) members={p0,p1} suffix_from=0 "
            "timely={p0,p1}\n"
            "  epoch 1 [20, 40) members={p0} suffix_from=20 timely={p0}\n"
            "  VIOLATION: plan seed=11: epoch 0: wait-freedom: p0 is a "
            "timely member of the epoch's sub-suffix (bound 2) but its "
            "completion gap 17 exceeds 5\n"
            "  VIOLATION: plan seed=11: epoch 0: wait-freedom: p1 is a "
            "timely member of the epoch's sub-suffix (bound 2) but its "
            "completion gap 16 exceeds 5\n"
            "  VIOLATION: plan seed=11: epoch 1: wait-freedom: p0 is a "
            "timely member of the epoch's sub-suffix (bound 2) but its "
            "completion gap 20 exceeds 5\n"
            "  VIOLATION: plan seed=11: wait-freedom: p0 is timely in "
            "the suffix (bound 2) but its completion gap 20 exceeds 5\n"
            "  VIOLATION: plan seed=11: lock-freedom: some issuing "
            "process is timely but the merged completion gap 20 exceeds "
            "5\n");

  rt::RtFaultPlan rt_plan(11);
  rt_plan.leave(1, 20);
  rt::RtTraceSnapshot trace =
      stamp_trace({every(0, 40, 2), every(1, 39, 2)}, 40);
  for (auto& events : trace.per_tid) {
    events[0].kind = rt::RtEventKind::kOpStart;
    events[1].kind = rt::RtEventKind::kOpComplete;
    events[events.size() - 2].kind = rt::RtEventKind::kOpStart;
  }
  const auto rt_report =
      core::check_rt_conformance(trace, rt_plan, golden_rt_options(4, 10));
  EXPECT_EQ(rt_report.summary(),
            "rt conformance plan seed=11 grade=lock-free run_end=40ns "
            "suffix_from=20ns timely={t0} issuing={t0,t1} VIOLATED\n"
            "  suffix bounds: t0=2ns t1=2ns\n"
            "  epoch 0 [0ns, 20ns) members={t0,t1} suffix_from=0ns "
            "timely={t0,t1}\n"
            "  epoch 1 [20ns, 40ns) members={t0} suffix_from=20ns "
            "timely={t0}\n"
            "  VIOLATION: rt plan seed=11: epoch 0: wait-freedom: t0 is "
            "a timely member of the epoch's sub-suffix (bound 2ns) but "
            "its completion gap 18ns exceeds 5ns\n"
            "  VIOLATION: rt plan seed=11: epoch 0: wait-freedom: t1 is "
            "a timely member of the epoch's sub-suffix (bound 2ns) but "
            "its completion gap 17ns exceeds 5ns\n"
            "  VIOLATION: rt plan seed=11: epoch 1: wait-freedom: t0 is "
            "a timely member of the epoch's sub-suffix (bound 2ns) but "
            "its completion gap 20ns exceeds 5ns\n"
            "  VIOLATION: rt plan seed=11: wait-freedom: t0 is timely in "
            "the suffix (bound 2ns) but its completion gap 20ns exceeds "
            "5ns\n"
            "  VIOLATION: rt plan seed=11: lock-freedom: some issuing "
            "thread is timely but the merged completion gap 20ns exceeds "
            "5ns\n");

  // Too short a tail is inconclusive on both, in each backend's unit.
  const auto sim_short = core::check_chaos_conformance(
      owner_trace(2, owners), log, plan, {0, 1}, golden_sim_options(4, 30));
  EXPECT_EQ(sim_short.summary(),
            "conformance plan seed=11 run_end=40 suffix_from=20 "
            "suffix_timely={} VIOLATED\n"
            "  window [0, 20) bounds: p0=2 p1=2\n"
            "  window [20, 40) bounds: p0=2 p1=2\n"
            "  epoch 0 [0, 20) members={p0,p1} inconclusive (sub-suffix "
            "too short)\n"
            "  epoch 1 [20, 40) members={p0} inconclusive (sub-suffix "
            "too short)\n"
            "  VIOLATION: plan seed=11: stable suffix too short: "
            "run_end=40 < suffix_from=20 + min_suffix=30 (inconclusive, "
            "lengthen the run)\n");
  const auto rt_short =
      core::check_rt_conformance(trace, rt_plan, golden_rt_options(4, 30));
  EXPECT_EQ(rt_short.summary(),
            "rt conformance plan seed=11 grade=none run_end=40ns "
            "suffix_from=20ns timely={} issuing={} VIOLATED\n"
            "  suffix bounds: t0=inf t1=inf\n"
            "  epoch 0 [0ns, 20ns) members={t0,t1} inconclusive "
            "(sub-suffix too short)\n"
            "  epoch 1 [20ns, 40ns) members={t0} inconclusive "
            "(sub-suffix too short)\n"
            "  VIOLATION: rt plan seed=11: stable suffix too short: "
            "run_end=40ns < suffix_from=20ns + min_suffix=30ns "
            "(inconclusive, lengthen the run)\n");
}

}  // namespace
}  // namespace tbwf
