// contend_rt: the wall-clock price of the Figure 7 structure on real
// threads. RtTbwfObject<SnapshotType> with 64 segments; kThreads client
// threads (one fewer than the 4 cores this was sized on) run a closed
// loop of the seeded 50/50 update/scan stream after a warm-up. The lease
// elector's handoffs and the per-op RtQaUniversal slot round with its
// state copies dominate; the sim kernel is absent.
//
// The timed window is cut into kWindows equal windows; throughput and
// the latency quantiles are medians over windows, which keeps one
// descheduling burst from moving the whole run.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rt/rt_qa.hpp"
#include "rt/rt_registers.hpp"
#include "rt/rt_tbwf.hpp"
#include "util/cacheline.hpp"
#include "workloads.hpp"
#include "zoo/zoo_types.hpp"

namespace perfbench {
namespace {

using Snapshot = tbwf::zoo::SnapshotType;
using Object = tbwf::rt::RtTbwfObject<Snapshot>;

constexpr int kThreads = 3;
constexpr int kSegments = 64;
constexpr int kWindows = 10;
constexpr std::uint64_t kSetupOps = 500;  ///< per thread, per setup
/// Latency samples kept per thread per window: the first this many ops.
/// A fixed cap keeps peak_rss_mb independent of throughput and run length.
constexpr std::size_t kSamplesPerWindow = 30000;

/// Pin the calling thread to CPU (tid + 1) mod nproc, so every run places
/// its client threads the same way (unpinned, run-to-run throughput was
/// bimodal). Best effort: a failed call leaves the thread unpinned.
void pin(std::uint32_t tid) {
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET((tid + 1) % ncpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Output checks of one reader thread over the views it scanned.
struct ReaderCheck {
  std::vector<std::int64_t> last_seen = std::vector<std::int64_t>(kThreads, 0);
  std::uint64_t bad = 0;  ///< scans that failed a check
};

/// What every thread shares: the seqs writers have started, the window
/// clock, and the stop flag.
struct Shared {
  explicit Shared(std::uint64_t s) : seed(s) {}
  std::uint64_t seed;
  tbwf::util::CachelinePadded<std::atomic<std::int64_t>> started[kThreads];
  std::atomic<int> window{-1};  ///< -1 = warm-up, kWindows = stop
  std::atomic<bool> stop{false};
};

/// A scanned view is valid iff every written segment holds 0 or a seq
/// its writer had started as an update, no segment went backwards for
/// this reader, and untouched segments are 0.
bool check_view(const Shared& sh, const std::vector<std::int64_t>& view,
                ReaderCheck& rc) {
  if (view.size() != static_cast<std::size_t>(kSegments)) return false;
  for (int w = 0; w < kThreads; ++w) {
    const std::int64_t v = view[static_cast<std::size_t>(w)];
    if (v < rc.last_seen[static_cast<std::size_t>(w)]) return false;
    rc.last_seen[static_cast<std::size_t>(w)] = v;
    if (v == 0) continue;
    if (v > sh.started[w]->load(std::memory_order_acquire)) return false;
    if (!is_update(sh.seed, static_cast<std::uint64_t>(w),
                   static_cast<std::uint64_t>(v))) {
      return false;
    }
  }
  for (int s = kThreads; s < kSegments; ++s) {
    if (view[static_cast<std::size_t>(s)] != 0) return false;
  }
  return true;
}

/// Per-thread record of one run.
struct ThreadLog {
  std::vector<std::vector<float>> lat_us = [] {
    std::vector<std::vector<float>> v(kWindows);
    for (auto& w : v) w.reserve(kSamplesPerWindow);
    return v;
  }();
  std::vector<std::uint64_t> window_ops = std::vector<std::uint64_t>(kWindows, 0);
  std::uint64_t ops = 0;          ///< all completed ops, warm-up included
  std::int64_t last_update = 0;   ///< seq of the last completed update
  ReaderCheck check;
};

/// The client loop: op k of thread tid is the seeded stream's k-th op.
/// With `stop_after` > 0 the thread stops after that many ops (setup);
/// otherwise it runs until the shared stop flag is set.
void client(Object& obj, Shared& sh, std::uint32_t tid, ThreadLog& log,
            SpanRecorder* rec, std::uint64_t stop_after) {
  pin(tid);
  for (std::uint64_t k = 1;; ++k) {
    if (stop_after > 0 ? k > stop_after
                       : sh.stop.load(std::memory_order_relaxed)) {
      return;
    }
    const int window = sh.window.load(std::memory_order_relaxed);
    const bool update = is_update(sh.seed, tid, k);
    const auto seq = static_cast<std::int64_t>(k);
    if (update) sh.started[tid]->store(seq, std::memory_order_release);
    const std::uint64_t t0 = now_ns();
    std::vector<std::int64_t> view;
    {
      Scope span(rec, "core.RtTbwfObject::invoke", k);
      view = obj.invoke(tid, update ? Snapshot::update(static_cast<int>(tid), seq)
                                    : Snapshot::scan());
    }
    const std::uint64_t t1 = now_ns();
    ++log.ops;
    if (update) {
      log.last_update = seq;
    } else if (!check_view(sh, view, log.check)) {
      ++log.check.bad;
    }
    if (window >= 0 && window < kWindows) {
      const auto w = static_cast<std::size_t>(window);
      ++log.window_ops[w];
      if (log.lat_us[w].size() < kSamplesPerWindow) {
        log.lat_us[w].push_back(static_cast<float>(t1 - t0) / 1e3f);
      }
    }
  }
}

/// Final-state check: one scan after all threads joined must show each
/// writer's last completed update.
bool final_state_ok(Object& obj, const std::vector<ThreadLog>& logs) {
  const auto view = obj.invoke(0, Snapshot::scan());
  for (int w = 0; w < kThreads; ++w) {
    if (view[static_cast<std::size_t>(w)] !=
        logs[static_cast<std::size_t>(w)].last_update) {
      return false;
    }
  }
  return true;
}

struct WindowedRun {
  std::vector<double> per_s, p50, p99;
  std::uint64_t ops = 0, bad = 0;
  std::uint64_t fences = 0;
  bool final_ok = false;
};

/// Warm up for `warm_s`, then measure kWindows windows of `window_s`.
WindowedRun windowed(std::uint64_t seed, double warm_s, double window_s,
                     bool traced, std::vector<std::unique_ptr<SpanRecorder>>* recs) {
  Object obj(kThreads, Snapshot::initial(kSegments));
  Shared sh(seed);
  std::vector<ThreadLog> logs(kThreads);
  const std::uint64_t fence0 = obj.elector().fence();
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    SpanRecorder* rec = traced ? (*recs)[t].get() : nullptr;
    threads.emplace_back([&, t, rec] { client(obj, sh, t, logs[t], rec, 0); });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warm_s));
  for (int w = 0; w < kWindows; ++w) {
    sh.window.store(w, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
  }
  sh.window.store(kWindows, std::memory_order_relaxed);
  sh.stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();

  WindowedRun run;
  run.fences = obj.elector().fence() - fence0;
  for (int w = 0; w < kWindows; ++w) {
    std::vector<double> all;
    std::uint64_t ops = 0;
    for (const auto& log : logs) {
      const auto& l = log.lat_us[static_cast<std::size_t>(w)];
      all.insert(all.end(), l.begin(), l.end());
      ops += log.window_ops[static_cast<std::size_t>(w)];
    }
    run.per_s.push_back(static_cast<double>(ops) / window_s);
    run.p50.push_back(quantile(all, 0.5));
    run.p99.push_back(quantile(all, 0.99));
  }
  for (const auto& log : logs) {
    run.ops += log.ops;
    run.bad += log.check.bad;
  }
  run.final_ok = final_state_ok(obj, logs);
  return run;
}

// -- the rt ladder: the same op stream into each lower layer alone -------------

struct Rung {
  double op_ns = 0;  ///< wall ns per completed op, all threads together
  double a_ns = 0, b_ns = 0;  ///< per-call ns of the rung's two entry points
  double ratio1 = 0, ratio2 = 0;  ///< rung-specific ratios (see callers)
};

/// Per-thread tallies of one rung.
struct RungStats {
  std::uint64_t ops = 0;
  std::uint64_t a_calls = 0, a_ns = 0, b_calls = 0, b_ns = 0;
  std::uint64_t x = 0, y = 0;  ///< rung-specific event counts
};

/// Run `body(tid, k, stats, stop)` on `nthreads` threads for `seconds`.
/// The body returns whether op k was applied; it must give up once
/// `stop` is set so a livelocked rung still ends on time.
template <class Body>
RungStats run_rung(double seconds, int nthreads, Body body) {
  std::atomic<bool> stop{false};
  std::vector<RungStats> stats(static_cast<std::size_t>(nthreads));
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < static_cast<std::uint32_t>(nthreads); ++t) {
    threads.emplace_back([&, t] {
      pin(t);
      for (std::uint64_t k = 1; !stop.load(std::memory_order_relaxed); ++k) {
        if (body(t, k, stats[t], stop)) ++stats[t].ops;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();
  RungStats sum;
  for (const auto& s : stats) {
    sum.ops += s.ops;
    sum.a_calls += s.a_calls;
    sum.a_ns += s.a_ns;
    sum.b_calls += s.b_calls;
    sum.b_ns += s.b_ns;
    sum.x += s.x;
    sum.y += s.y;
  }
  return sum;
}

template <class F>
auto timed(std::uint64_t& calls, std::uint64_t& ns, F&& f) {
  const std::uint64_t t0 = now_ns();
  auto r = f();
  ns += now_ns() - t0;
  ++calls;
  return r;
}

double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

Rung finish(const RungStats& s, double seconds) {
  Rung r;
  r.op_ns = 1e9 * seconds / static_cast<double>(s.ops);
  r.a_ns = per(s.a_ns, s.a_calls);
  r.b_ns = per(s.b_ns, s.b_calls);
  return r;
}

/// Rung 1: RtAbortableReg holding the 64-segment state. An update is a
/// read then a write of the own segment, a scan one read; aborts retry.
/// x counts aborted calls.
Rung register_rung(std::uint64_t seed, double seconds,
                   std::vector<std::unique_ptr<SpanRecorder>>& recs) {
  tbwf::rt::RtAbortableReg<std::vector<std::int64_t>> reg(
      Snapshot::initial(kSegments));
  const RungStats s = run_rung(seconds, kThreads, [&](std::uint32_t tid, std::uint64_t k,
                                            RungStats& st,
                                            const std::atomic<bool>& stop) {
    SpanRecorder* rec = recs[tid].get();
    Scope op(rec, "rung.register.op", k);
    while (!stop.load(std::memory_order_relaxed)) {
      std::optional<std::vector<std::int64_t>> v;
      {
        Scope span(rec, "registers.RtAbortableReg::read", k);
        v = timed(st.a_calls, st.a_ns, [&] { return reg.read(); });
      }
      if (!v) {
        ++st.x;
        continue;
      }
      if (!is_update(seed, tid, k)) return true;
      (*v)[tid] = static_cast<std::int64_t>(k);
      bool ok = false;
      {
        Scope span(rec, "registers.RtAbortableReg::write", k);
        ok = timed(st.b_calls, st.b_ns, [&] { return reg.write(*v); });
      }
      if (ok) return true;
      ++st.x;
    }
    return false;
  });
  Rung r = finish(s, seconds);
  r.ratio1 = per(s.x, s.a_calls + s.b_calls);
  return r;
}

/// Rung 2: LeaseElector alone. An op wins the lease (retrying with the
/// object's backoff shape) and releases it. x counts failed try_lead.
Rung lease_rung(double seconds, std::vector<std::unique_ptr<SpanRecorder>>& recs) {
  tbwf::rt::LeaseElector elector(std::chrono::microseconds(50));
  const RungStats s = run_rung(seconds, kThreads, [&](std::uint32_t tid, std::uint64_t k,
                                            RungStats& st,
                                            const std::atomic<bool>& stop) {
    SpanRecorder* rec = recs[tid].get();
    Scope op(rec, "rung.lease.op", k);
    for (int attempt = 0; !stop.load(std::memory_order_relaxed); ++attempt) {
      bool won = false;
      {
        Scope span(rec, "rt.LeaseElector::try_lead", k);
        won = timed(st.a_calls, st.a_ns, [&] { return elector.try_lead(tid); });
      }
      if (won) {
        elector.release(tid);
        return true;
      }
      ++st.x;
      if (attempt >= 6) std::this_thread::yield();
    }
    return false;
  });
  Rung r = finish(s, seconds);
  r.ratio1 = per(s.x, s.a_calls);
  return r;
}

/// Rung 3: RtQaUniversal with no lease, each op driven until applied by
/// the Figure 8 automaton. x counts bottoms, y counts F responses. With
/// one thread this is the slot round as a leaseholder runs it; with
/// kThreads it shows the aborts the lease exists to prevent.
Rung qa_rung(std::uint64_t seed, double seconds, int nthreads,
             std::vector<std::unique_ptr<SpanRecorder>>& recs) {
  tbwf::rt::RtQaUniversal<Snapshot> qa(kThreads, Snapshot::initial(kSegments));
  const RungStats s = run_rung(seconds, nthreads, [&](std::uint32_t tid, std::uint64_t k,
                                            RungStats& st,
                                            const std::atomic<bool>& stop) {
    SpanRecorder* rec = recs[tid].get();
    Scope op(rec, "rung.qa.op", k);
    const auto o = is_update(seed, tid, k)
                       ? Snapshot::update(static_cast<int>(tid),
                                          static_cast<std::int64_t>(k))
                       : Snapshot::scan();
    bool unresolved = false;
    for (int attempt = 0; !stop.load(std::memory_order_relaxed); ++attempt) {
      tbwf::qa::QaResponse<Snapshot::Result> r;
      if (unresolved) {
        Scope span(rec, "qa.RtQaUniversal::query", k);
        r = timed(st.b_calls, st.b_ns, [&] { return qa.query(tid); });
      } else {
        Scope span(rec, "qa.RtQaUniversal::invoke", k);
        r = timed(st.a_calls, st.a_ns, [&] { return qa.invoke(tid, o); });
      }
      unresolved = true;
      if (r.ok()) return true;
      if (r.bottom()) ++st.x;
      if (r.not_applied()) {
        ++st.y;
        unresolved = false;
      }
      if (attempt >= 6) std::this_thread::yield();
    }
    return false;
  });
  Rung r = finish(s, seconds);
  r.ratio1 = per(s.x, s.a_calls + s.b_calls);
  r.ratio2 = per(s.y, s.a_calls + s.b_calls);
  return r;
}

std::vector<std::unique_ptr<SpanRecorder>> make_recorders(std::uint32_t base) {
  std::vector<std::unique_ptr<SpanRecorder>> recs;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    recs.push_back(std::make_unique<SpanRecorder>(base + t, 60000));
  }
  return recs;
}

}  // namespace

int run_contend_rt(const Args& args) {
  // Setup: construct the object, start the clients and let each finish
  // kSetupOps ops (the lease has then rotated through every thread).
  std::vector<double> setups;
  Result result;
  for (int i = 0; i < 9; ++i) {
    const auto t0 = Clock::now();
    Object obj(kThreads, Snapshot::initial(kSegments));
    Shared sh(args.seed);
    std::vector<ThreadLog> logs(kThreads);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { client(obj, sh, t, logs[t], nullptr, kSetupOps); });
    }
    for (auto& th : threads) th.join();
    setups.push_back(seconds_since(t0));
  }

  const double main_s = args.trace ? args.seconds / 4 : args.seconds;
  const double warm_s = std::min(0.5, main_s / 10);
  const WindowedRun run =
      windowed(args.seed, warm_s, (main_s - warm_s) / kWindows, false, nullptr);
  result.attempted = run.ops;
  result.failed = run.bad;
  result.check("scans_valid_and_monotone", run.bad == 0);
  result.check("final_state", run.final_ok);
  emit_progress(result.attempted);

  emit_metrics("e2e", {
      {"setup_s", median(setups)},
      {"ops_per_s", median(run.per_s)},
      {"op_p50_us", median(run.p50)},
      {"op_p99_us", median(run.p99)},
      {"failed_ppm", 1e6 * static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted)},
      {"peak_rss_mb", peak_rss_mb()},
  });

  if (args.trace) {
    const double part = args.seconds / 4;
    auto full_recs = make_recorders(0);
    const WindowedRun traced =
        windowed(args.seed, warm_s, (part - warm_s) / kWindows, true, &full_recs);
    auto reg_recs = make_recorders(10);
    auto lease_recs = make_recorders(20);
    auto qa_recs = make_recorders(30);
    const Rung reg = register_rung(args.seed, part / 4, reg_recs);
    const Rung lease = lease_rung(part / 4, lease_recs);
    const Rung qa = qa_rung(args.seed, part / 4, 1, qa_recs);
    const Rung qa_contended = qa_rung(args.seed, part / 4, kThreads, qa_recs);
    const double full_op_ns = 1e9 / median(run.per_s);
    emit_metrics("layers", {
        {"rt.reg.read_ns", reg.a_ns},
        {"rt.reg.write_ns", reg.b_ns},
        {"rt.reg.abort_ratio", reg.ratio1},
        {"rt.reg.op_ns", reg.op_ns},
        {"rt.lease.try_ns", lease.a_ns},
        {"rt.lease.fail_ratio", lease.ratio1},
        {"rt.lease.op_ns", lease.op_ns},
        {"rt.lease.tenures_per_op", per(run.fences, run.ops)},
        {"rt.qa.invoke_ns", qa.a_ns},
        {"rt.qa.query_ns", qa_contended.b_ns},  // solo never queries
        {"rt.qa.bottom_ratio", qa_contended.ratio1},
        {"rt.qa.f_ratio", qa_contended.ratio2},
        {"rt.qa.contended_op_ns", qa_contended.op_ns},
        {"rt.qa.op_ns", qa.op_ns},
        {"rt.full.op_ns", full_op_ns},
        {"rt.core.fig7_ns", full_op_ns - qa.op_ns - lease.op_ns},
        {"trace.overhead_pct",
         100.0 * (median(run.per_s) / median(traced.per_s) - 1.0)},
    });
    result.check("traced_scans_valid", traced.bad == 0 && traced.final_ok);
    std::vector<const SpanRecorder*> full, rungs;
    for (const auto& r : full_recs) full.push_back(r.get());
    for (const auto* v : {&reg_recs, &lease_recs, &qa_recs}) {
      for (const auto& r : *v) rungs.push_back(r.get());
    }
    const std::string path = args.out_dir + "/trace_contend_rt_" +
                             std::to_string(args.seed) + ".json";
    if (!write_trace(path, {{"contend_rt full", false, full},
                            {"contend_rt ladder", false, rungs}})) {
      note("could not write %s", path.c_str());
      result.check("trace_written", false);
    }
  }
  emit_result(result);
  return 0;
}

}  // namespace perfbench
