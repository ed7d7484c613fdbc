// explore: bounded-DFS verify::Explorer plus the Wing-Gong oracle over
// the QA counter harness at n = 3. It drives the sim kernel the other
// way round from the sim workloads -- many short worlds, replays and
// fingerprinting -- and is the only workload that measures `verify`.
//
// One "op" here is one explored schedule (a DFS leaf). The timed window
// repeats whole explorations of a fixed run budget; throughput and the
// per-schedule latency quantiles are medians over explorations.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "verify/explorer.hpp"
#include "verify/qa_harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kN = 3;
constexpr std::size_t kMaxDepth = 400;
constexpr std::uint64_t kRunBudget = 12000;

/// Per-exploration measurements collected by TimedRun.
struct Probe {
  SpanRecorder* rec = nullptr;
  std::int32_t parent = -1;
  std::uint64_t runs = 0;
  std::uint64_t check_ns = 0;
  std::vector<double> run_us;  ///< factory call -> run object destroyed
};

/// ExploredRun decorator: times each run's lifetime and its check().
class TimedRun final : public tbwf::verify::ExploredRun {
 public:
  TimedRun(std::unique_ptr<tbwf::verify::ExploredRun> inner, Probe& probe,
           std::uint64_t born, std::int32_t span)
      : inner_(std::move(inner)), probe_(probe), born_(born), span_(span) {}
  ~TimedRun() override {
    const std::uint64_t t = now_ns();
    probe_.run_us.push_back(static_cast<double>(t - born_) / 1e3);
    if (probe_.rec != nullptr) probe_.rec->end_at(span_, t);
  }
  TimedRun(const TimedRun&) = delete;
  TimedRun& operator=(const TimedRun&) = delete;

  tbwf::sim::World& world() override { return inner_->world(); }
  std::uint64_t seed() const override { return inner_->seed(); }
  std::uint64_t fingerprint() const override { return inner_->fingerprint(); }
  std::string describe() const override { return inner_->describe(); }
  std::string check() override {
    const std::uint64_t t0 = now_ns();
    const std::int32_t id =
        probe_.rec != nullptr ? probe_.rec->begin("verify.check", 0, span_)
                              : -1;
    std::string verdict = inner_->check();
    const std::uint64_t t1 = now_ns();
    if (probe_.rec != nullptr) probe_.rec->end_at(id, t1);
    probe_.check_ns += t1 - t0;
    return verdict;
  }

 private:
  std::unique_ptr<tbwf::verify::ExploredRun> inner_;
  Probe& probe_;
  std::uint64_t born_;
  std::int32_t span_;
};

struct Exploration {
  tbwf::verify::ExploreResult result;
  double wall_s = 0;
  Probe probe;
  double p50_us = 0, p99_us = 0;  ///< per-schedule latency quantiles
};

void explore_once(std::uint64_t seed, std::uint64_t budget,
                  SpanRecorder* rec, Exploration& out) {
  auto config = tbwf::verify::counter_explore_config(kN, 1, seed);
  auto inner = tbwf::verify::make_qa_run_factory(config);
  out.probe.rec = rec;
  out.probe.parent =
      rec != nullptr ? rec->begin("verify.Explorer::explore", budget) : -1;
  Probe* probe = &out.probe;
  tbwf::verify::RunFactory factory =
      [inner, probe](std::unique_ptr<tbwf::sim::Schedule> schedule)
      -> std::unique_ptr<tbwf::verify::ExploredRun> {
    const std::uint64_t born = now_ns();
    const std::int32_t span =
        probe->rec != nullptr
            ? probe->rec->begin("verify.run", probe->runs, probe->parent)
            : -1;
    ++probe->runs;
    return std::make_unique<TimedRun>(inner(std::move(schedule)), *probe,
                                      born, span);
  };
  tbwf::verify::ExplorerOptions options;
  options.name = "perfbench-explore";
  options.max_depth = kMaxDepth;
  options.max_runs = budget;
  const auto t0 = Clock::now();
  {
    tbwf::verify::Explorer explorer(std::move(factory), options);
    out.result = explorer.explore();
  }
  out.wall_s = seconds_since(t0);
  if (rec != nullptr) rec->end(out.probe.parent);
  // Keep only the quantiles, so memory does not grow with run length.
  out.p50_us = quantile(out.probe.run_us, 0.5);
  out.p99_us = quantile(out.probe.run_us, 0.99);
  out.probe.run_us = {};
}

}  // namespace

int run_explore(const Args& args) {
  // Setup: build the harness config and explorer and take one schedule
  // to its verdict. Repeated; the median is reported.
  std::vector<double> setups;
  for (int i = 0; i < 31; ++i) {
    Exploration first;
    const auto t0 = Clock::now();
    explore_once(args.seed, 1, nullptr, first);
    setups.push_back(seconds_since(t0));
  }

  // Timed explorations (untraced); a traced run splits its time between
  // an untraced and a traced half so tracing overhead can be reported.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Exploration> runs;
  Result result;
  const auto window = Clock::now();
  do {
    runs.emplace_back();
    explore_once(args.seed, kRunBudget, nullptr, runs.back());
    result.attempted += runs.back().result.stats.runs;
    emit_progress(result.attempted);
  } while (seconds_since(window) < untraced_s);

  bool no_violation = true;
  bool same_count = true;
  std::vector<double> per_s, p50, p99;
  for (const auto& r : runs) {
    const auto& st = r.result.stats;
    no_violation = no_violation && !r.result.violation_found;
    same_count = same_count && st.runs == runs.front().result.stats.runs &&
                 st.distinct_states == runs.front().result.stats.distinct_states;
    per_s.push_back(static_cast<double>(st.runs) / r.wall_s);
    p50.push_back(r.p50_us);
    p99.push_back(r.p99_us);
  }
  if (!no_violation) {
    for (const auto& r : runs) {
      if (r.result.violation_found) result.failed += r.result.stats.runs;
    }
  }
  result.check("no_violation", no_violation);
  result.check("budget_reached",
               runs.front().result.stats.runs == kRunBudget ||
                   runs.front().result.clean());
  result.check("run_count_repeats", same_count);

  emit_metrics("e2e", {
      {"setup_s", median(setups)},
      {"ops_per_s", median(per_s)},
      {"op_p50_us", median(p50)},
      {"op_p99_us", median(p99)},
      {"schedules_per_s", median(per_s)},
      {"failed_ppm", 1e6 * static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted)},
      {"peak_rss_mb", peak_rss_mb()},
  });

  if (args.trace) {
    SpanRecorder rec(0, 400000);
    std::vector<Exploration> traced;
    const auto t1 = Clock::now();
    do {
      traced.emplace_back();
      explore_once(args.seed, kRunBudget, &rec, traced.back());
    } while (seconds_since(t1) < args.seconds / 2);
    std::vector<double> traced_per_s;
    for (const auto& r : traced) {
      traced_per_s.push_back(static_cast<double>(r.result.stats.runs) /
                             r.wall_s);
    }
    const auto& st = runs.front().result.stats;
    const auto& probe = runs.front().probe;
    const double runs_d = static_cast<double>(st.runs);
    const double cut = static_cast<double>(st.state_prunes + st.sleep_skips);
    const double choices =
        static_cast<double>(st.steps + st.sleep_skips + st.state_prunes +
                            st.preemption_skips);
    emit_metrics("verify", {
        {"verify.ns_per_run", 1e9 / median(per_s)},
        {"verify.steps_per_run", static_cast<double>(st.steps) / runs_d},
        {"verify.check_ns_per_run",
         static_cast<double>(probe.check_ns) / runs_d},
        {"verify.prune_ratio", cut / choices},
        {"verify.distinct_states", static_cast<double>(st.distinct_states)},
        {"trace.overhead_pct",
         100.0 * (median(per_s) / median(traced_per_s) - 1.0)},
    });
    const std::string path = args.out_dir + "/trace_explore_" +
                             std::to_string(args.seed) + ".json";
    if (!write_trace(path, {{"explore", false, {&rec}}})) {
      note("could not write %s", path.c_str());
      result.check("trace_written", false);
    }
  }
  emit_result(result);
  return 0;
}

}  // namespace perfbench
