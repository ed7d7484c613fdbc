// Bridge from google-benchmark to the tbwf-bench-v1 JSON schema
// (bench_util.hpp JsonReporter): a display reporter that renders the
// usual console table AND records one JSON row per benchmark run, so a
// gbench binary keeps its interactive output while feeding the CI
// regression gate. Used by bench_rt_throughput / bench_sim_throughput.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace tbwf::bench {

/// One measured benchmark run, kept for post-processing hooks (derived
/// rows such as speedup ratios and CI gate booleans).
struct GBenchRow {
  std::string bench;  ///< full benchmark name, e.g. "BM_X/threads:4"
  int threads = 1;
  double items_per_second = 0;
};

/// Console output plus one JsonReporter row per (non-aggregate,
/// non-errored) run: metric "throughput", value items_per_second,
/// config {"bench": run name, "threads": n}. Benchmarks registered via
/// set_variant get that variant stamped instead of the sticky default
/// (used to mark unoptimized twins as "before": informational rows the
/// regression gate skips but EXPERIMENTS.md tables quote).
class GBenchJsonAdapter : public benchmark::ConsoleReporter {
 public:
  explicit GBenchJsonAdapter(JsonReporter& json) : json_(json) {}

  /// Stamp rows of benchmarks whose name starts with `prefix`.
  void set_variant(const std::string& prefix, const std::string& variant) {
    variants_.emplace_back(prefix, variant);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto it = run.counters.find("items_per_second");
      if (it == run.counters.end()) continue;
      const std::string name = run.benchmark_name();
      const double value = static_cast<double>(it->second);
      std::vector<std::pair<std::string, std::string>> config = {
          {"bench", name}, {"threads", fmt_i(run.threads)}};
      for (const auto& [prefix, variant] : variants_) {
        if (name.rfind(prefix, 0) == 0) {
          config.emplace_back("variant", variant);
          break;
        }
      }
      json_.row("throughput", value, "items/s", /*seed=*/0, config);
      collected_.push_back(
          GBenchRow{name, static_cast<int>(run.threads), value});
    }
  }

  const std::vector<GBenchRow>& collected() const { return collected_; }

 private:
  JsonReporter& json_;
  std::vector<std::pair<std::string, std::string>> variants_;
  std::vector<GBenchRow> collected_;
};

/// Hook run after all benchmarks, before the JSON is written: derive
/// extra rows (ratios, gate booleans) from the measured runs.
using GBenchPostHook =
    std::function<void(JsonReporter&, const std::vector<GBenchRow>&)>;

/// Benchmarks whose rows should be stamped variant=<v> instead of the
/// default "after".
using GBenchVariantMap = std::vector<std::pair<std::string, std::string>>;

/// Drop-in replacement for BENCHMARK_MAIN() that also writes
/// BENCH_<experiment>.json (tbwf-bench-v1) next to the binary or into
/// $TBWF_BENCH_JSON_DIR.
inline int run_gbench_with_json(int argc, char** argv,
                                const std::string& experiment,
                                const GBenchVariantMap& variants = {},
                                const GBenchPostHook& post = nullptr) {
  benchmark::Initialize(&argc, &argv[0]);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonReporter json(experiment);
  json.set_config("variant", "after");
  json.set_meta("harness", "google-benchmark");
  GBenchJsonAdapter reporter(json);
  for (const auto& [prefix, variant] : variants) {
    reporter.set_variant(prefix, variant);
  }
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (post) post(json, reporter.collected());
  json.write_file(bench_json_path("BENCH_" + experiment + ".json"));
  return 0;
}

}  // namespace tbwf::bench
