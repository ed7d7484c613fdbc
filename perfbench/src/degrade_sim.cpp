// degrade_sim: the paper's headline scenario (Theorem 14, experiment E1)
// on the full TbwfSystem<SnapshotType> with 64 segments over Figure 3
// atomic-register Omega-Delta, n = 4 sim processes. Three processes are
// timely with bound 8 and one is growing_flicker (provably not timely).
// Every process runs a closed loop of the seeded 50/50 stream: updates
// of its own segment (value = its op sequence number) and scans.
//
// Every layer from the sim kernel up to Figure 7 works here, QA slot
// rounds dominating; Omega-Delta is quiet once stable and the channels,
// abort policies and soak are idle. The untimely process makes any
// change that lets timely processes wait on a slow one show up in
// max_gap_steps.
//
// Step-count metrics cover a fixed window of kExactSteps steps after
// Omega-Delta stabilizes, so they repeat exactly for a seed; the run
// then continues until the wall-clock window closes, for ops_per_s.
// In a traced run the sim ladder rungs run first and report before the
// full system starts, so a failure of the full system leaves them
// standing.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/progress.hpp"
#include "core/tbwf.hpp"
#include "omega/candidate_drivers.hpp"
#include "omega/omega_registers.hpp"
#include "qa/qa_universal.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"
#include "workloads.hpp"
#include "zoo/zoo_types.hpp"

namespace perfbench {
namespace {

namespace sim = tbwf::sim;
using Snapshot = tbwf::zoo::SnapshotType;
using System = tbwf::core::TbwfSystem<Snapshot>;
using sim::Pid;
using sim::Step;

constexpr int kN = 4;
constexpr int kSegments = 64;
constexpr Step kTimelyBound = 8;
constexpr Pid kFlicker = 3;
constexpr Step kSlice = 1024;
constexpr Step kStabilizeCap = 4000000;
constexpr Step kExactSteps = 2000000;
constexpr Step kChunk = 200000;         ///< wall-throughput sample size
constexpr Step kMaxGap = 250000;        ///< check_tbwf progress bound
constexpr Step kRungSteps = 500000;     ///< per ladder rung

std::vector<sim::ActivitySpec> specs_for(std::uint64_t seed) {
  std::vector<sim::ActivitySpec> specs;
  for (Pid p = 0; p < kN; ++p) {
    if (p == kFlicker) {
      specs.push_back(sim::ActivitySpec::growing_flicker(
          1500 + static_cast<Step>(mix(seed, 100, 0) % 1000),
          300 + static_cast<Step>(mix(seed, 100, 1) % 300)));
    } else {
      specs.push_back(sim::ActivitySpec::timely(kTimelyBound));
    }
  }
  return specs;
}

std::unique_ptr<sim::Schedule> schedule_for(std::uint64_t seed) {
  return std::make_unique<sim::TimelinessSchedule>(specs_for(seed), seed);
}

Snapshot::Op op_for(std::uint64_t seed, Pid p, std::uint64_t k) {
  return is_update(seed, static_cast<std::uint64_t>(p), k)
             ? Snapshot::update(p, static_cast<std::int64_t>(k))
             : Snapshot::scan();
}

/// Per-process bookkeeping of the closed loop, plus the output checks.
struct Proc {
  std::int64_t started = 0;      ///< seq of the last update invoked
  std::int64_t in_flight = 0;    ///< seq of the op now pending (0 = none)
  std::int64_t last_update = 0;  ///< seq of the last completed update
  std::uint64_t attempted = 0;
  std::vector<std::int64_t> last_seen = std::vector<std::int64_t>(kN, 0);
  std::uint64_t bad_scans = 0;
  std::vector<Step> done_at;     ///< completion step of every op
  std::vector<Step> latency;     ///< invoke-to-return steps of every op
};

/// The full system plus the host-side state its workers report into.
struct Stack {
  Stack(std::uint64_t s, bool log_writes)
      : seed(s),
        world(kN, schedule_for(s), world_options(log_writes)),
        sys(world, Snapshot::initial(kSegments),
            tbwf::core::OmegaBackend::AtomicRegisters) {}

  std::uint64_t seed;
  sim::World world;
  System sys;
  std::vector<Proc> procs = std::vector<Proc>(kN);
  SpanRecorder* steps_rec[kN] = {};  ///< per-pid step-domain spans

  static sim::WorldOptions world_options(bool log_writes) {
    sim::WorldOptions options;
    options.log_writes = log_writes;
    return options;
  }

  bool view_ok(Pid reader, const std::vector<std::int64_t>& view) {
    if (view.size() != static_cast<std::size_t>(kSegments)) return false;
    Proc& me = procs[static_cast<std::size_t>(reader)];
    for (Pid w = 0; w < kN; ++w) {
      const std::int64_t v = view[static_cast<std::size_t>(w)];
      if (v < me.last_seen[static_cast<std::size_t>(w)]) return false;
      me.last_seen[static_cast<std::size_t>(w)] = v;
      if (v == 0) continue;
      if (v > procs[static_cast<std::size_t>(w)].started) return false;
      if (!is_update(seed, static_cast<std::uint64_t>(w),
                     static_cast<std::uint64_t>(v))) {
        return false;
      }
    }
    for (int s = kN; s < kSegments; ++s) {
      if (view[static_cast<std::size_t>(s)] != 0) return false;
    }
    return true;
  }

  /// The timely pids agree on one timely leader.
  Pid agreed_leader() {
    const Pid l = sys.omega_io(0).leader;
    if (l == sim::kNoPid || l == kFlicker) return sim::kNoPid;
    for (Pid p = 1; p < kN; ++p) {
      if (p != kFlicker && sys.omega_io(p).leader != l) return sim::kNoPid;
    }
    return l;
  }
};

sim::Task worker(sim::SimEnv& env, Stack& st) {
  const Pid p = env.pid();
  Proc& me = st.procs[static_cast<std::size_t>(p)];
  for (std::uint64_t k = 1;; ++k) {
    const Snapshot::Op op = op_for(st.seed, p, k);
    if (op.is_update) me.started = static_cast<std::int64_t>(k);
    me.in_flight = static_cast<std::int64_t>(k);
    ++me.attempted;
    const Step t0 = env.now();
    SpanRecorder* rec = st.steps_rec[p];
    const std::int32_t span =
        rec != nullptr ? rec->begin_at("core.TbwfObject::invoke", k, t0) : -1;
    std::vector<std::int64_t> view = co_await st.sys.object().invoke(env, op);
    const Step t1 = env.now();
    if (rec != nullptr) rec->end_at(span, t1);
    me.in_flight = 0;
    me.done_at.push_back(t1);
    me.latency.push_back(t1 - t0);
    if (op.is_update) {
      me.last_update = static_cast<std::int64_t>(k);
    } else if (!st.view_ok(p, view)) {
      ++me.bad_scans;
    }
  }
}

/// Build the stack and run it until Omega-Delta stabilizes; returns the
/// stabilization step (0 if it never did within kStabilizeCap).
Step setup(Stack& st) {
  for (Pid p = 0; p < kN; ++p) {
    st.world.spawn(p, "app", [&st](sim::SimEnv& env) { return worker(env, st); });
  }
  while (st.world.now() < kStabilizeCap) {
    st.world.run(kSlice);
    if (st.agreed_leader() != sim::kNoPid) return st.world.now();
  }
  return 0;
}

std::uint64_t total_attempted(const Stack& st) {
  std::uint64_t n = 0;
  for (const auto& p : st.procs) n += p.attempted;
  return n;
}

// -- ladder rungs ----------------------------------------------------------------

struct RungOut {
  std::uint64_t ops = 0;
  double ns_per_step = 0;
  double steps_per_op = 0;
  double reads_per_op = 0;
  double writes_per_op = 0;
};

/// Run `world` for kRungSteps in slices, timing World::run.
double timed_run(sim::World& world, SpanRecorder* rec) {
  std::uint64_t ns = 0;
  while (world.now() < kRungSteps) {
    const std::uint64_t t0 = now_ns();
    {
      Scope span(rec, "sim.World::run");
      world.run(kSlice);
    }
    ns += now_ns() - t0;
  }
  return static_cast<double>(ns) / static_cast<double>(world.now());
}

RungOut rung_out(const sim::World& world, std::uint64_t ops, double ns) {
  RungOut r;
  r.ops = ops;
  r.ns_per_step = ns;
  const double d = ops == 0 ? 1.0 : static_cast<double>(ops);
  r.steps_per_op = static_cast<double>(world.now()) / d;
  r.reads_per_op = static_cast<double>(world.total_reads()) / d;
  r.writes_per_op = static_cast<double>(world.total_writes()) / d;
  return r;
}

/// Rung 1: register-only tasks on the same schedule. A scan reads the
/// 64-segment state register, an update writes it with the own segment
/// set (one base register operation per op).
struct RegRungState {
  std::uint64_t seed;
  sim::AtomicReg<std::vector<std::int64_t>> state;
  std::uint64_t ops = 0;
};

sim::Task register_worker(sim::SimEnv& env, RegRungState& rs) {
  const Pid p = env.pid();
  std::vector<std::int64_t> mine = Snapshot::initial(kSegments);
  for (std::uint64_t k = 1;; ++k) {
    if (is_update(rs.seed, static_cast<std::uint64_t>(p), k)) {
      mine[static_cast<std::size_t>(p)] = static_cast<std::int64_t>(k);
      co_await env.write(rs.state, mine);
    } else {
      (void)co_await env.read(rs.state);
    }
    ++rs.ops;
  }
}

RungOut register_rung(std::uint64_t seed, SpanRecorder* rec) {
  sim::World world(kN, schedule_for(seed));
  RegRungState rs{seed, world.make_atomic("State", Snapshot::initial(kSegments)), 0};
  for (Pid p = 0; p < kN; ++p) {
    world.spawn(p, "reg", [&rs](sim::SimEnv& env) { return register_worker(env, rs); });
  }
  const double ns = timed_run(world, rec);
  return rung_out(world, rs.ops, ns);
}

/// Rung 2: Figure 3 Omega-Delta with permanent candidates, no
/// application. Reports stabilization, leader changes after it, and the
/// largest punishment counter.
struct OmegaRungOut {
  RungOut base;
  Step stabilize = 0;
  std::uint64_t leader_changes = 0;
  std::int64_t punish_max = 0;
};

OmegaRungOut omega_rung(std::uint64_t seed, SpanRecorder* rec) {
  namespace omega = tbwf::omega;
  sim::World world(kN, schedule_for(seed));
  omega::OmegaRegisters om(world);
  om.install_all();
  for (Pid p = 0; p < kN; ++p) {
    omega::OmegaIO* io = &om.io(p);
    world.spawn(p, "cand", [io](sim::SimEnv& env) {
      return omega::permanent_candidate(env, *io);
    });
  }
  OmegaRungOut out;
  Pid last = sim::kNoPid;
  std::uint64_t ns = 0;
  while (world.now() < kRungSteps) {
    const std::uint64_t t0 = now_ns();
    {
      Scope span(rec, "sim.World::run");
      world.run(kSlice);
    }
    ns += now_ns() - t0;
    Pid l = om.io(0).leader;
    for (Pid p = 1; p < kN; ++p) {
      if (p != kFlicker && om.io(p).leader != l) l = sim::kNoPid;
    }
    if (l == sim::kNoPid || l == kFlicker) continue;
    if (out.stabilize == 0) out.stabilize = world.now();
    if (last != sim::kNoPid && l != last) ++out.leader_changes;
    last = l;
  }
  for (Pid p = 0; p < kN; ++p) {
    out.punish_max = std::max(out.punish_max, world.peek(om.counter_register(p)));
  }
  out.base = rung_out(world, 0,
                      static_cast<double>(ns) / static_cast<double>(world.now()));
  return out;
}

/// Rung 3: QaUniversal<SnapshotType> without Omega-Delta; each op is
/// driven to completion by the Figure 8 automaton.
struct QaRungState {
  std::uint64_t seed;
  tbwf::qa::QaUniversal<Snapshot>* qa;
  std::uint64_t ops = 0;
};

sim::Task qa_worker(sim::SimEnv& env, QaRungState& qs) {
  const Pid p = env.pid();
  for (std::uint64_t k = 1;; ++k) {
    const Snapshot::Op op = op_for(qs.seed, p, k);
    bool query = false;
    for (;;) {
      tbwf::qa::QaResponse<Snapshot::Result> r;
      if (query) {
        r = co_await qs.qa->query(env);
      } else {
        r = co_await qs.qa->invoke(env, op);
      }
      if (r.ok()) break;
      query = r.bottom();
    }
    ++qs.ops;
  }
}

struct QaRungOut {
  RungOut base;
  double rounds_per_op = 0;
  double publishes_per_op = 0;
};

QaRungOut qa_rung(std::uint64_t seed, SpanRecorder* rec) {
  sim::World world(kN, schedule_for(seed));
  tbwf::qa::QaUniversal<Snapshot> qa(world, Snapshot::initial(kSegments));
  QaRungState qs{seed, &qa, 0};
  for (Pid p = 0; p < kN; ++p) {
    world.spawn(p, "qa", [&qs](sim::SimEnv& env) { return qa_worker(env, qs); });
  }
  const double ns = timed_run(world, rec);
  QaRungOut out;
  out.base = rung_out(world, qs.ops, ns);
  std::uint64_t rounds = 0, publishes = 0;
  for (Pid p = 0; p < kN; ++p) {
    rounds += qa.round(p);
    publishes += qa.publishes(p);
  }
  const double d = qs.ops == 0 ? 1.0 : static_cast<double>(qs.ops);
  out.rounds_per_op = static_cast<double>(rounds) / d;
  out.publishes_per_op = static_cast<double>(publishes) / d;
  return out;
}

/// Returns the QA rung's global steps per op (the rung below Figure 7).
double emit_ladder(std::uint64_t seed, SpanRecorder& rec) {
  const RungOut reg = register_rung(seed, &rec);
  emit_metrics("rung.register", {
      {"rung.register.ns_per_step", reg.ns_per_step},
      {"rung.register.steps_per_op", reg.steps_per_op},
  });
  const OmegaRungOut om = omega_rung(seed, &rec);
  emit_metrics("rung.omega", {
      {"rung.omega.ns_per_step", om.base.ns_per_step},
      {"rung.omega.stabilize_steps", static_cast<double>(om.stabilize)},
      {"rung.omega.leader_changes", static_cast<double>(om.leader_changes)},
      {"rung.omega.punish_max", static_cast<double>(om.punish_max)},
  });
  const QaRungOut qa = qa_rung(seed, &rec);
  emit_metrics("rung.qa", {
      {"rung.qa.ns_per_step", qa.base.ns_per_step},
      {"rung.qa.steps_per_op", qa.base.steps_per_op},
      {"rung.qa.reads_per_op", qa.base.reads_per_op},
      {"rung.qa.writes_per_op", qa.base.writes_per_op},
      {"rung.qa.rounds_per_op", qa.rounds_per_op},
      {"rung.qa.publishes_per_op", qa.publishes_per_op},
  });
  return qa.base.steps_per_op;
}

/// Omega-Delta and activity-monitor registers, by cell name.
bool omega_register(const std::string& name) {
  return name.rfind("CounterRegister[", 0) == 0 || name.rfind("Hb[", 0) == 0;
}

/// Snapshot of the full system's counters, for deltas over a window.
struct Counts {
  Step step = 0;
  std::uint64_t reads = 0, writes = 0, rounds = 0, publishes = 0;
  std::uint64_t completed = 0;
  std::size_t write_log = 0;

  static Counts of(Stack& st) {
    Counts c;
    c.step = st.world.now();
    c.reads = st.world.total_reads();
    c.writes = st.world.total_writes();
    for (Pid p = 0; p < kN; ++p) {
      c.rounds += st.sys.object().qa().round(p);
      c.publishes += st.sys.object().qa().publishes(p);
      c.completed += st.procs[static_cast<std::size_t>(p)].done_at.size();
    }
    c.write_log = st.world.write_log().size();
    return c;
  }
};

}  // namespace

int run_degrade_sim(const Args& args) {
  std::unique_ptr<SpanRecorder> ladder_rec;
  double qa_rung_steps_per_op = 0;
  if (args.trace) {
    ladder_rec = std::make_unique<SpanRecorder>(100);
    qa_rung_steps_per_op = emit_ladder(args.seed, *ladder_rec);
  }

  // Setup: construction plus the warm-up to a stable leader. Repeated;
  // the median is reported and the last stack is measured.
  std::vector<double> setups;
  std::unique_ptr<Stack> st;
  Step stable_at = 0;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    st = std::make_unique<Stack>(args.seed, args.trace);
    stable_at = setup(*st);
    setups.push_back(seconds_since(t0));
    emit_progress(total_attempted(*st));
  }
  Result result;
  result.check("omega_stabilized", stable_at != 0);

  SpanRecorder wall_rec(0);
  std::vector<std::unique_ptr<SpanRecorder>> step_recs;
  if (args.trace) {
    for (Pid p = 0; p < kN; ++p) {
      step_recs.push_back(std::make_unique<SpanRecorder>(p, 100000));
      st->steps_rec[p] = step_recs.back().get();
    }
  }

  // Exact window, then wall-clock extension; chunks give ops_per_s.
  const Counts c0 = Counts::of(*st);
  const Step exact_end = c0.step + kExactSteps;
  std::vector<double> per_s;
  Counts c_exact{};
  std::uint64_t run_ns = 0;
  std::uint64_t leader_changes = 0;
  Pid leader = st->agreed_leader();
  const auto window = Clock::now();
  while (st->world.now() < exact_end || seconds_since(window) < args.seconds) {
    const Counts a = Counts::of(*st);
    const std::uint64_t t0 = now_ns();
    while (st->world.now() < a.step + kChunk) {
      Scope span(args.trace ? &wall_rec : nullptr, "sim.World::run");
      st->world.run(std::min(kSlice, a.step + kChunk - st->world.now()));
      const Pid l = st->agreed_leader();
      if (st->world.now() <= exact_end && l != sim::kNoPid) {
        if (l != leader) ++leader_changes;
        leader = l;
      }
    }
    const std::uint64_t dt = now_ns() - t0;
    run_ns += dt;
    const Counts b = Counts::of(*st);
    per_s.push_back(1e9 * static_cast<double>(b.completed - a.completed) /
                    static_cast<double>(dt));
    if (b.step == exact_end) c_exact = b;
    emit_progress(total_attempted(*st));
  }

  // Step metrics over [c0.step, exact_end] for the timely pids.
  std::vector<double> lat;
  Step max_gap = 0;
  for (Pid p = 0; p < kN; ++p) {
    if (p == kFlicker) continue;
    const Proc& pr = st->procs[static_cast<std::size_t>(p)];
    Step last = c0.step;
    for (std::size_t i = 0; i < pr.done_at.size(); ++i) {
      const Step at = pr.done_at[i];
      if (at <= c0.step || at > exact_end) continue;
      lat.push_back(static_cast<double>(pr.latency[i]));
      max_gap = std::max(max_gap, at - last);
      last = at;
    }
    max_gap = std::max(max_gap, exact_end - last);
  }

  // Output checks.
  std::uint64_t bad = 0;
  bool final_ok = true;
  const auto state = st->sys.object().qa().peek_frontier().state;
  for (Pid p = 0; p < kN; ++p) {
    const Proc& pr = st->procs[static_cast<std::size_t>(p)];
    bad += pr.bad_scans;
    const std::int64_t v = state[static_cast<std::size_t>(p)];
    // A pending update may already have taken effect.
    final_ok = final_ok && (v == pr.last_update ||
                            (pr.in_flight != 0 && v == pr.in_flight &&
                             is_update(args.seed, static_cast<std::uint64_t>(p),
                                       static_cast<std::uint64_t>(v))));
  }
  std::vector<Pid> all, timely;
  for (Pid p = 0; p < kN; ++p) {
    all.push_back(p);
    if (p != kFlicker) timely.push_back(p);
  }
  const auto report = tbwf::core::analyze_progress(
      st->sys.object().log(), st->world.now(), stable_at, kMaxGap, all);
  const bool tbwf_ok = tbwf::core::check_tbwf(report, timely).holds;
  result.attempted = total_attempted(*st);
  result.failed = bad;
  result.check("scans_valid_and_monotone", bad == 0);
  result.check("final_state", final_ok);
  result.check("check_tbwf_timely", tbwf_ok);

  const double exact_ops = static_cast<double>(c_exact.completed - c0.completed);
  emit_metrics("e2e", {
      {"setup_s", median(setups)},
      {"ops_per_s", median(per_s)},
      {"ops_per_kstep", 1e3 * exact_ops / static_cast<double>(kExactSteps)},
      {"op_p50_steps", quantile(lat, 0.5)},
      {"op_p99_steps", quantile(lat, 0.99)},
      {"max_gap_steps", static_cast<double>(max_gap)},
      {"failed_ppm", 1e6 * static_cast<double>(result.failed) /
                         static_cast<double>(std::max<std::uint64_t>(1, result.attempted))},
      {"peak_rss_mb", peak_rss_mb()},
  });

  if (args.trace) {
    // Omega-Delta and monitor registers by cell name, over the exact
    // window's writes (the write log is on for traced runs only).
    const double d = exact_ops == 0 ? 1.0 : exact_ops;
    std::uint64_t omega_writes = 0, window_writes = 0;
    const auto& log = st->world.write_log();
    for (std::size_t i = c0.write_log; i < c_exact.write_log; ++i) {
      ++window_writes;
      if (omega_register(st->world.cell_info(log[i].reg).name)) ++omega_writes;
    }
    std::int64_t punish_max = 0;
    for (std::uint32_t r = 0; r < st->world.register_count(); ++r) {
      if (st->world.cell_info(r).name.rfind("CounterRegister[", 0) == 0) {
        punish_max = std::max(punish_max, st->world.peek<std::int64_t>(r));
      }
    }
    const double steps_per_op = static_cast<double>(kExactSteps) / d;
    emit_metrics("layers", {
        {"sim.ns_per_step", static_cast<double>(run_ns) /
                                static_cast<double>(st->world.now() - c0.step)},
        {"sim.reads_per_op", static_cast<double>(c_exact.reads - c0.reads) / d},
        {"sim.writes_per_op", static_cast<double>(c_exact.writes - c0.writes) / d},
        {"omega.stabilize_steps", static_cast<double>(stable_at)},
        {"omega.leader_changes", static_cast<double>(leader_changes)},
        {"omega.write_share", static_cast<double>(omega_writes) /
                                  static_cast<double>(std::max<std::uint64_t>(1, window_writes))},
        {"omega.punish_max", static_cast<double>(punish_max)},
        {"core.steps_per_op", steps_per_op},
        {"core.fig7_steps", steps_per_op - qa_rung_steps_per_op},
        {"qa.rounds_per_op", static_cast<double>(c_exact.rounds - c0.rounds) / d},
        {"qa.publishes_per_op",
         static_cast<double>(c_exact.publishes - c0.publishes) / d},
    });
    std::vector<const SpanRecorder*> steps;
    for (const auto& r : step_recs) steps.push_back(r.get());
    const std::string path = args.out_dir + "/trace_degrade_sim_" +
                             std::to_string(args.seed) + ".json";
    if (!write_trace(path, {{"degrade_sim wall", false, {&wall_rec, ladder_rec.get()}},
                            {"degrade_sim ops", true, steps}})) {
      note("could not write %s", path.c_str());
      result.check("trace_written", false);
    }
  }
  emit_result(result);
  return 0;
}

}  // namespace perfbench
