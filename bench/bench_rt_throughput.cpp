// E11/E19 -- Wall-clock cost on real threads (google-benchmark).
//
// The paper positions TBWF as the progress condition you can afford
// when strong primitives are costly and synchrony is imperfect. This
// bench prices the Figure 7 counter on threads (RtTbwfObject: the lease
// over the QA universal construction) against a mutex, a CAS loop and
// a hardware fetch_add across thread counts. Expect it to trail the
// hardware primitives on raw throughput by orders of magnitude -- the
// paper's trade is progress guarantees and fate-exactness under partial
// synchrony from weak primitives, not speed.
//
// E19 (batching ablation): the saturating multi-producer pair
// BM_UnbatchedQaCounter (one full slot round per op, variant "before")
// vs BM_BatchedQaCounter (announce/combine/help engine, variant
// "after") across threads 1-8. The post hook derives the per-thread
// batched_speedup rows (unit "x", informational -- ~5.6x measured at
// threads:4 on a quiet box, see EXPERIMENTS.md E19) and the CI gate
// row batched_ge_2x (unit "bool", threads:4): check_bench_regression.py
// fails the build if the batched engine ever drops below 2x the
// unbatched construction there. The gate threshold is deliberately far
// below the measured speedup: wall-clock ratios on shared, noisy CI
// runners swing too much for a tight bool to be anything but a flake,
// while a batching engine that cannot even double the per-op
// construction is genuinely broken.
#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "bench_json_gbench.hpp"

#include "qa/sequential_type.hpp"
#include "rt/rt_baselines.hpp"
#include "rt/rt_qa.hpp"
#include "rt/rt_tbwf.hpp"

namespace {

using namespace tbwf::rt;

RtMutexCounter g_mutex_counter;
RtCasCounter g_cas_counter;
RtFaaCounter g_faa_counter;
RtTbwfObject<tbwf::qa::Counter> g_tbwf_object(8, 0);

// The E19 pair models a saturating OPEN system: each OS thread is a
// proxy for kProducers pending producers (there are always more
// producers than cores in the saturation regime the paper's batching
// argument addresses). Unbatched, a thread pushes its producers' ops
// one full promise/accept/decide round at a time; batched, it stages
// one op per owned lane and a single combine round drains every staged
// lane in the system. Engines are sized to the thread count of the run
// (n = threads, lanes = threads * kProducers) so neither side pays for
// idle capacity.
constexpr int kProducers = 16;

RtQaBatched<tbwf::qa::Counter>::Options lanes_opts(int threads) {
  RtQaBatched<tbwf::qa::Counter>::Options opts;
  opts.lanes = threads * kProducers;
  return opts;
}

RtQaBatched<tbwf::qa::Counter>& batched_for(int threads) {
  static RtQaBatched<tbwf::qa::Counter> e1(1, 0, lanes_opts(1));
  static RtQaBatched<tbwf::qa::Counter> e2(2, 0, lanes_opts(2));
  static RtQaBatched<tbwf::qa::Counter> e4(4, 0, lanes_opts(4));
  static RtQaBatched<tbwf::qa::Counter> e8(8, 0, lanes_opts(8));
  switch (threads) {
    case 1: return e1;
    case 2: return e2;
    case 4: return e4;
    default: return e8;
  }
}

RtQaUniversal<tbwf::qa::Counter>& unbatched_for(int threads) {
  static RtQaUniversal<tbwf::qa::Counter> e1(1, 0);
  static RtQaUniversal<tbwf::qa::Counter> e2(2, 0);
  static RtQaUniversal<tbwf::qa::Counter> e4(4, 0);
  static RtQaUniversal<tbwf::qa::Counter> e8(8, 0);
  switch (threads) {
    case 1: return e1;
    case 2: return e2;
    case 4: return e4;
    default: return e8;
  }
}

void BM_MutexCounter(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_mutex_counter.fetch_add(1));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CasCounter(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_cas_counter.fetch_add(1));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FaaCounter(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_faa_counter.fetch_add(1));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_TbwfUniversalObject(benchmark::State& state) {
  const auto tid = static_cast<std::uint32_t>(state.thread_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        g_tbwf_object.invoke(tid, tbwf::qa::Counter::Op{1}));
  }
  state.SetItemsProcessed(state.iterations());
}

// The unbatched QA construction: each producer op is driven until it
// is APPLIED (invoke, chase the fate with query, re-invoke on F) --
// one full promise/accept/decide round per op, sequentially per
// producer. Both benches in this pair count applied ops; the retry
// cost of lost rounds is exactly E19's "before".
void BM_UnbatchedQaCounter(benchmark::State& state) {
  auto& obj = unbatched_for(state.threads());
  const auto tid = static_cast<std::uint32_t>(state.thread_index());
  for (auto _ : state) {
    for (int j = 0; j < kProducers; ++j) {
      for (;;) {
        auto r = obj.invoke(tid, tbwf::qa::Counter::Op{1});
        while (r.bottom()) {
          r = obj.query(tid);
          if (r.bottom()) std::this_thread::yield();
        }
        if (r.ok()) {
          benchmark::DoNotOptimize(r);
          break;
        }
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kProducers);
}

// The batched announce/combine/help engine: the thread stages one op
// on each of its kProducers lanes (one shared announce write per op),
// then collects; the first collect's combine round drains every staged
// lane, amortizing the slot round across the batch. E19's "after".
void BM_BatchedQaCounter(benchmark::State& state) {
  auto& obj = batched_for(state.threads());
  const auto tid = static_cast<std::uint32_t>(state.thread_index());
  const int lane0 = static_cast<int>(tid) * kProducers;
  for (auto _ : state) {
    for (int j = 0; j < kProducers; ++j) {
      obj.announce(tid, lane0 + j, tbwf::qa::Counter::Op{1});
    }
    for (int j = 0; j < kProducers; ++j) {
      benchmark::DoNotOptimize(obj.collect(tid, lane0 + j));
    }
  }
  state.SetItemsProcessed(state.iterations() * kProducers);
}

void derive_batching_rows(tbwf::bench::JsonReporter& json,
                          const std::vector<tbwf::bench::GBenchRow>& rows) {
  const auto find = [&rows](const char* prefix, int threads) -> double {
    for (const auto& r : rows) {
      if (r.threads == threads && r.bench.rfind(prefix, 0) == 0) {
        return r.items_per_second;
      }
    }
    return 0;
  };
  for (const int t : {1, 2, 4, 8}) {
    const double unbatched = find("BM_UnbatchedQaCounter", t);
    const double batched = find("BM_BatchedQaCounter", t);
    if (unbatched <= 0 || batched <= 0) continue;
    const double speedup = batched / unbatched;
    json.row("batched_speedup", speedup, "x", /*seed=*/0,
             {{"bench", "BatchedVsUnbatchedQa"},
              {"threads", tbwf::bench::fmt_i(t)}});
    if (t == 4) {
      // The hard CI gate: >= 2x at four saturating producers. The
      // acceptance-level >= 5x shows up in the informational
      // batched_speedup row above; the bool is set low enough to
      // survive noisy shared runners (see the header comment).
      json.row("batched_ge_2x", speedup >= 2.0 ? 1.0 : 0.0, "bool",
               /*seed=*/0,
               {{"bench", "BatchedVsUnbatchedQa"}, {"threads", "4"}});
    }
  }
}

}  // namespace

BENCHMARK(BM_MutexCounter)->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_CasCounter)->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_FaaCounter)->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_TbwfUniversalObject)->Threads(1)->Threads(2)->Threads(4)
    ->Threads(8)->UseRealTime();
BENCHMARK(BM_UnbatchedQaCounter)->Threads(1)->Threads(2)->Threads(4)
    ->Threads(8)->UseRealTime();
BENCHMARK(BM_BatchedQaCounter)->Threads(1)->Threads(2)->Threads(4)
    ->Threads(8)->UseRealTime();

int main(int argc, char** argv) {
  // Until a process has started a thread, libstdc++'s shared_ptr counts
  // and glibc's allocator take single-threaded fast paths. Every row, the
  // first threads:1 one and any filtered run included, must time the
  // threaded program.
  std::thread([] {}).join();
  return tbwf::bench::run_gbench_with_json(
      argc, argv, "rt_throughput",
      // Both per-op QA constructions are the "before" side of E19:
      // informational context, not gated rows. Their multi-thread
      // timings hinge on preemption luck (every op needs the slot
      // round to itself), which no fixed tolerance survives on a
      // loaded box; the batched engine and the primitive counters are
      // the gated surface.
      {{"BM_UnbatchedQaCounter", "before"},
       {"BM_TbwfUniversalObject", "before"}},
      [](tbwf::bench::JsonReporter& json,
         const std::vector<tbwf::bench::GBenchRow>& rows) {
        // Contended rows depend on how many cores the threads share, so
        // the regression check compares only runs with equal counts.
        json.set_meta("cores",
                      std::to_string(std::thread::hardware_concurrency()));
        derive_batching_rows(json, rows);
      });
}
