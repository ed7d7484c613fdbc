// E20: the universality tax across the data-structure zoo.
//
// Every zoo object runs as the QA-universal instantiation of its
// Sequential type and as the batched engine; the snapshot and the
// ledger also have a handwritten register-based specialist (the
// bounded queue has none). This harness prices the gap on both
// backends:
//  * sim rows (gated, unit "rounds"): Ok operations completed inside a
//    fixed deterministic step budget, identical seed and workload for
//    every engine -- the ratio IS the universality tax in model steps;
//  * rt rows (informational, unit "ops/s"): wall-clock throughput of
//    the same object/engine matrix on real threads, each specialist
//    being its sim coroutine run through rt::RtFront -- noisy on shared
//    runners, so the gate checks the rows exist but not their values;
//  * tax rows (informational, unit "x"): specialist / engine ratio per
//    object with a specialist and backend.
// The JSON lands at BENCH_zoo.json and feeds the CI bench gate plus
// the docs/ZOO.md table.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "rt/rt_qa.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"
#include "zoo/ledger.hpp"
#include "zoo/snapshot.hpp"
#include "verify/qa_batched_harness.hpp"
#include "zoo/zoo_harness.hpp"
#include "zoo/zoo_types.hpp"

namespace {

using namespace tbwf;
using namespace tbwf::zoo;
using verify::BatchedZoo;
using verify::UniversalZoo;

constexpr std::uint64_t kSeed = 7;
constexpr sim::Step kBudget = 60000;  ///< sim step budget per config
constexpr int kSimN = 4;
constexpr int kRtThreads = 3;
constexpr std::uint64_t kRtOps = 4000;  ///< Ok ops per thread per config
constexpr int kCap = 8;  ///< bounded queue capacity in both backends

using Queue = BoundedQueueOf<kCap>;

// -- sim side -----------------------------------------------------------------

/// Saturating workload: every process loops op -> chase bottom via
/// query -> next op, for a fixed step budget. Returns total Ok ops.
template <class S, class Obj, class MakeFn, class OpFn>
std::uint64_t sim_ok_ops(int n, MakeFn make, OpFn next_op) {
  sim::World world(n, std::make_unique<sim::RandomSchedule>(kSeed));
  auto obj = make(world);
  std::vector<std::uint64_t> done(static_cast<std::size_t>(n), 0);
  struct Worker {
    static sim::Task run(sim::SimEnv& env, Obj& obj, OpFn next_op,
                         std::uint64_t& done) {
      const sim::Pid p = env.pid();
      for (std::uint64_t k = 0;; ++k) {
        auto r = co_await obj.invoke(env, next_op(p, k));
        while (r.bottom()) {
          co_await env.yield();
          r = co_await obj.query(env);
        }
        if (r.ok()) ++done;
      }
    }
  };
  for (sim::Pid p = 0; p < n; ++p) {
    world.spawn(p, "w", [&, p](sim::SimEnv& env) {
      return Worker::run(env, *obj, next_op, done[static_cast<std::size_t>(p)]);
    });
  }
  world.run(kBudget);
  std::uint64_t total = 0;
  for (const std::uint64_t d : done) total += d;
  return total;
}

// The per-object workloads; identical across engines and backends so
// the only variable is the construction being priced.
SnapshotType::Op snapshot_op(int p, std::uint64_t k) {
  return k % 2 == 0 ? SnapshotType::update(p, static_cast<std::int64_t>(k))
                    : SnapshotType::scan();
}
Queue::Op queue_op(int p, std::uint64_t k) {
  return p % 2 == 0 ? Queue::enqueue(static_cast<std::int64_t>(k))
                    : Queue::dequeue();
}
LedgerType::Op ledger_op(int p, std::uint64_t k, int n) {
  return k % 2 == 0
             ? LedgerType::put(p, static_cast<std::int64_t>(k))
             : LedgerType::get((p + 1) % n);
}

struct SimPoint {
  std::optional<std::uint64_t> specialist;  ///< unset: no specialist
  std::uint64_t universal = 0;
  std::uint64_t batched = 0;
};

SimPoint sim_snapshot() {
  SimPoint pt;
  const auto op = [](sim::Pid p, std::uint64_t k) { return snapshot_op(p, k); };
  pt.specialist = sim_ok_ops<SnapshotType, WfSnapshot<>>(
      kSimN,
      [](sim::World& w) {
        return std::make_unique<WfSnapshot<>>(w, SnapshotType::initial(w.n()));
      },
      op);
  pt.universal = sim_ok_ops<SnapshotType, UniversalZoo<SnapshotType>>(
      kSimN,
      [](sim::World& w) {
        return std::make_unique<UniversalZoo<SnapshotType>>(
            w, SnapshotType::initial(w.n()));
      },
      op);
  pt.batched = sim_ok_ops<SnapshotType, BatchedZoo<SnapshotType>>(
      kSimN,
      [](sim::World& w) {
        return std::make_unique<BatchedZoo<SnapshotType>>(
            w, SnapshotType::initial(w.n()));
      },
      op);
  return pt;
}

SimPoint sim_queue() {
  SimPoint pt;
  const auto op = [](sim::Pid p, std::uint64_t k) { return queue_op(p, k); };
  pt.universal = sim_ok_ops<Queue, UniversalZoo<Queue>>(
      kSimN,
      [](sim::World& w) {
        return std::make_unique<UniversalZoo<Queue>>(w, Queue::State{});
      },
      op);
  pt.batched = sim_ok_ops<Queue, BatchedZoo<Queue>>(
      kSimN,
      [](sim::World& w) {
        return std::make_unique<BatchedZoo<Queue>>(w, Queue::State{});
      },
      op);
  return pt;
}

SimPoint sim_ledger() {
  SimPoint pt;
  const auto op = [](sim::Pid p, std::uint64_t k) {
    return ledger_op(p, k, kSimN);
  };
  pt.specialist = sim_ok_ops<LedgerType, WfLedger<>>(
      kSimN,
      [](sim::World& w) {
        return std::make_unique<WfLedger<>>(w, LedgerType::State{});
      },
      op);
  pt.universal = sim_ok_ops<LedgerType, UniversalZoo<LedgerType>>(
      kSimN,
      [](sim::World& w) {
        return std::make_unique<UniversalZoo<LedgerType>>(w,
                                                          LedgerType::State{});
      },
      op);
  pt.batched = sim_ok_ops<LedgerType, BatchedZoo<LedgerType>>(
      kSimN,
      [](sim::World& w) {
        return std::make_unique<BatchedZoo<LedgerType>>(w, LedgerType::State{});
      },
      op);
  return pt;
}

// -- rt side ------------------------------------------------------------------

/// kRtOps Ok operations per thread; an F fate re-issues the same op, a
/// bottom chases through query. Returns total Ok ops per second.
template <class Obj, class OpFn>
double rt_ok_ops_per_sec(Obj& obj, OpFn next_op, const char* tag) {
  std::fprintf(stderr, "rt %s...\n", tag);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kRtThreads);
  for (int tid = 0; tid < kRtThreads; ++tid) {
    threads.emplace_back([&, tid] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // The QA protocols run on abortable registers, which only promise
      // obstruction-freedom under contention: two threads re-issuing and
      // re-querying in lockstep can abort each other indefinitely. The
      // tid-skewed sleep breaks the symmetry so someone always runs solo
      // long enough to decide.
      std::uint64_t stalls = 0;
      const auto backoff = [&] {
        ++stalls;
        if (stalls % 512 == 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(20 * (tid + 1)));
        } else if (stalls % 8 == 0) {
          std::this_thread::yield();
        }
      };
      for (std::uint64_t k = 0; k < kRtOps;) {
        auto r = obj.invoke(static_cast<std::uint32_t>(tid), next_op(tid, k));
        while (r.bottom()) {
          backoff();
          r = obj.query(static_cast<std::uint32_t>(tid));
        }
        if (r.ok()) {
          ++k;
        } else {
          backoff();  // F: the op aborted with no effect; re-issue it
        }
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return secs > 0 ? static_cast<double>(kRtThreads) *
                        static_cast<double>(kRtOps) / secs
                  : 0.0;
}

struct RtPoint {
  std::optional<double> specialist;  ///< unset: no specialist
  double universal = 0;
  double batched = 0;
};

RtPoint rt_snapshot() {
  RtPoint pt;
  const auto op = [](int tid, std::uint64_t k) { return snapshot_op(tid, k); };
  {
    rt::RtFront<WfSnapshot<rt::RtBase>> obj(kRtThreads,
                                           SnapshotType::initial(kRtThreads));
    pt.specialist = rt_ok_ops_per_sec(obj, op, "snap/spec");
  }
  {
    rt::RtQaUniversal<SnapshotType> obj(kRtThreads,
                                        SnapshotType::initial(kRtThreads));
    pt.universal = rt_ok_ops_per_sec(obj, op, "snap/uni");
  }
  {
    rt::RtQaBatched<SnapshotType> obj(kRtThreads,
                                      SnapshotType::initial(kRtThreads));
    pt.batched = rt_ok_ops_per_sec(obj, op, "snap/bat");
  }
  return pt;
}

RtPoint rt_queue() {
  RtPoint pt;
  const auto op = [](int tid, std::uint64_t k) { return queue_op(tid, k); };
  {
    rt::RtQaUniversal<Queue> obj(kRtThreads, Queue::State{});
    pt.universal = rt_ok_ops_per_sec(obj, op, "queue/uni");
  }
  {
    rt::RtQaBatched<Queue> obj(kRtThreads, Queue::State{});
    pt.batched = rt_ok_ops_per_sec(obj, op, "queue/bat");
  }
  return pt;
}

RtPoint rt_ledger() {
  RtPoint pt;
  const auto op = [](int tid, std::uint64_t k) {
    return ledger_op(tid, k, kRtThreads);
  };
  {
    rt::RtFront<WfLedger<rt::RtBase>> obj(kRtThreads, LedgerType::State{});
    pt.specialist = rt_ok_ops_per_sec(obj, op, "ledger/spec");
  }
  {
    rt::RtQaUniversal<LedgerType> obj(kRtThreads, LedgerType::State{});
    pt.universal = rt_ok_ops_per_sec(obj, op, "ledger/uni");
  }
  {
    rt::RtQaBatched<LedgerType> obj(kRtThreads, LedgerType::State{});
    pt.batched = rt_ok_ops_per_sec(obj, op, "ledger/bat");
  }
  return pt;
}

/// Specialist / engine; unset for an object without a specialist.
std::optional<double> tax(std::optional<double> specialist, double engine) {
  if (!specialist) return std::nullopt;
  return engine > 0 ? *specialist / engine : 0.0;
}

}  // namespace

int main() {
  using bench::fmt_f;
  using bench::fmt_i;
  using bench::fmt_u;

  bench::banner("E20: universality tax across the zoo",
                "a QA-universal object costs a bounded constant factor over "
                "its handwritten specialist, on both backends");

  bench::JsonReporter json("zoo");
  json.set_meta("objects", "snapshot,queue,ledger");

  const char* names[3] = {"snapshot", "queue", "ledger"};
  const SimPoint sim_pts[3] = {sim_snapshot(), sim_queue(), sim_ledger()};
  const RtPoint rt_pts[3] = {rt_snapshot(), rt_queue(), rt_ledger()};

  bench::Table table({"object", "backend", "specialist", "universal",
                      "batched", "tax(uni)", "tax(bat)"});
  // "-" where the object has no specialist.
  const auto cell = [](std::optional<double> v, int prec) {
    return v ? fmt_f(*v, prec) : std::string("-");
  };
  for (int i = 0; i < 3; ++i) {
    const SimPoint& sp = sim_pts[i];
    const RtPoint& rp = rt_pts[i];
    const auto sim_tax_uni =
        tax(sp.specialist, static_cast<double>(sp.universal));
    const auto sim_tax_bat =
        tax(sp.specialist, static_cast<double>(sp.batched));
    const auto rt_tax_uni = tax(rp.specialist, rp.universal);
    const auto rt_tax_bat = tax(rp.specialist, rp.batched);
    table.row({names[i], "sim", cell(sp.specialist, 0), fmt_u(sp.universal),
               fmt_u(sp.batched), cell(sim_tax_uni, 2), cell(sim_tax_bat, 2)});
    table.row({names[i], "rt", cell(rp.specialist, 0), fmt_f(rp.universal, 0),
               fmt_f(rp.batched, 0), cell(rt_tax_uni, 2), cell(rt_tax_bat, 2)});

    // Gated deterministic rows: Ok ops inside the fixed sim budget.
    std::vector<std::pair<const char*, std::uint64_t>> sim_rows;
    if (sp.specialist) sim_rows.emplace_back("specialist", *sp.specialist);
    sim_rows.emplace_back("universal", sp.universal);
    sim_rows.emplace_back("batched", sp.batched);
    for (const auto& [engine, ops] : sim_rows) {
      json.row("ops_per_budget", static_cast<double>(ops), "rounds", kSeed,
               {{"backend", "sim"},
                {"object", names[i]},
                {"engine", engine},
                {"n", fmt_i(kSimN)},
                {"steps", fmt_u(kBudget)}});
    }
    // Informational wall-clock rows (value not compared by the gate).
    std::vector<std::pair<const char*, double>> rt_rows;
    if (rp.specialist) rt_rows.emplace_back("specialist", *rp.specialist);
    rt_rows.emplace_back("universal", rp.universal);
    rt_rows.emplace_back("batched", rp.batched);
    for (const auto& [engine, ops] : rt_rows) {
      json.row("throughput", ops, "ops/s", 0,
               {{"backend", "rt"},
                {"object", names[i]},
                {"engine", engine},
                {"threads", fmt_i(kRtThreads)}});
    }
    if (!sp.specialist) continue;
    // Informational tax ratios, one per engine and backend.
    json.row("universality_tax", *sim_tax_uni, "x", kSeed,
             {{"backend", "sim"}, {"object", names[i]}, {"engine", "universal"}});
    json.row("universality_tax", *sim_tax_bat, "x", kSeed,
             {{"backend", "sim"}, {"object", names[i]}, {"engine", "batched"}});
    json.row("universality_tax", *rt_tax_uni, "x", 0,
             {{"backend", "rt"}, {"object", names[i]}, {"engine", "universal"}});
    json.row("universality_tax", *rt_tax_bat, "x", 0,
             {{"backend", "rt"}, {"object", names[i]}, {"engine", "batched"}});
  }
  table.print();

  json.write_file(bench::bench_json_path("BENCH_zoo.json"));
  return 0;
}
