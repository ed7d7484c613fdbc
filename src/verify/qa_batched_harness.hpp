// Explorer harness for the BATCHED QA engine: the same bounded workload
// and oracle grading as qa_harness.hpp, run against
// BatchedQaUniversal<S, Base> so the bounded-DFS explorer can drive the
// combiner seam -- announce interleavings, drain races, adoption of
// floating batches, tombstone sealing -- and the Wing-Gong oracle can
// judge every history in terms of the INNER type S (histories are over
// S ops/results; batching is invisible to the oracle, exactly as it
// must be to clients).
//
// The run itself is the zoo's: a ZooExploredRun over the BatchedZoo
// adapter, whose fingerprint covers the inner construction's records,
// the announce array, each process's local step count and the history
// fates. This header only maps the engine's knobs onto it.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "qa/qa_batched.hpp"
#include "qa/sequential_type.hpp"
#include "registers/abort_policy.hpp"
#include "verify/explorer.hpp"
#include "zoo/zoo_harness.hpp"

namespace tbwf::verify {

template <qa::Sequential S, class Base = qa::AtomicBase>
struct QaBatchedExploreConfig : ExploreWorkload<S> {
  /// Engine tuning: small patience keeps explored runs short.
  typename qa::BatchedQaUniversal<S, Base>::Options engine{};
  /// Protocol faults under test (all off = the real engine).
  qa::BatchMutations mutations{};
  registers::AbortPolicy* policy = nullptr;
};

/// Factory adapter for Explorer; the config is copied into every run.
template <qa::Sequential S, class Base = qa::AtomicBase>
RunFactory make_qa_batched_run_factory(QaBatchedExploreConfig<S, Base> config) {
  using Obj = zoo::BatchedZoo<S, Base>;
  return zoo::make_zoo_run_factory<S, Obj>(
      config,
      [config](sim::World& world, const typename S::State& initial) {
        auto object = std::make_unique<Obj>(world, initial, config.policy,
                                            config.engine);
        object->set_mutations(config.mutations);
        return object;
      });
}

/// The canonical batched explorer workload: n processes, each issuing
/// `ops_per_process` Counter increments of distinct powers of two (any
/// credited-but-dropped increment corrupts every later Ok result).
inline QaBatchedExploreConfig<qa::Counter> batched_counter_explore_config(
    int n, int ops_per_process, std::uint64_t world_seed = 1) {
  QaBatchedExploreConfig<qa::Counter> config;
  config.n = n;
  config.world_seed = world_seed;
  config.engine.patience = 1;
  config.engine.combine_attempts = 2;
  config.ops.resize(n);
  for (int p = 0; p < n; ++p) {
    for (int k = 0; k < ops_per_process; ++k) {
      config.ops[p].push_back(
          qa::Counter::Op{std::int64_t{1} << (p * ops_per_process + k)});
    }
  }
  return config;
}

}  // namespace tbwf::verify
