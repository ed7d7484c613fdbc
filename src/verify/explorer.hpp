// Bounded-depth systematic schedule explorer (stateless model checking
// for the coroutine simulator).
//
// The explorer owns the scheduling decisions of a World run: it replays
// a chosen pid prefix through the Schedule seam, extends it one step at
// a time, and backtracks over untried choices -- a DFS over the tree of
// interleavings up to `max_depth` steps. Three reductions keep the tree
// tractable:
//
//   * sleep sets (Godefroid), keyed on register-access independence:
//     after exploring pid p at a node, p "sleeps" in the sibling
//     branches until some step conflicts with p's next step (same
//     register, at least one write, neither side inert). Atomic-register
//     invocation halves are inert -- an atomic outcome never depends on
//     overlap -- so only effectful accesses wake sleepers. Sound because
//     a sleeping process takes no step, so its recorded next accesses
//     stay valid.
//
//   * state-hash pruning: each node is fingerprinted (harness state via
//     ExploredRun::fingerprint + World::process_signature per pid); a
//     node whose fingerprint was already expanded with at least as much
//     remaining depth is cut. Best-effort: the fingerprint covers shared
//     registers, harness object internals and pending-op signatures, but
//     not every buffered coroutine local -- disable via
//     ExplorerOptions::state_pruning for exact (slower) exploration. The
//     mutation suite (tests/verify_mutation_test.cpp) is the empirical
//     evidence that the default configuration catches real bugs.
//
//   * optional preemption bounding (Musuvathi/Qadeer): branches that
//     switch away from a still-runnable process more than
//     `max_preemptions` times are cut.
//
// Every completed run (one DFS leaf) is handed to ExploredRun::check();
// a non-empty verdict stops the search, and the violating schedule is
// minimized to its shortest failing prefix and packaged as a replayable
// CounterexampleArtifact.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/schedule.hpp"
#include "sim/world.hpp"
#include "verify/artifact.hpp"

namespace tbwf::verify {

/// One run under the explorer's control. The factory contract: the
/// World is constructed with the schedule the factory receives and with
/// WorldOptions::track_accesses = true, and the run is a deterministic
/// function of (schedule, seed) -- no wall-clock, no global state.
class ExploredRun {
 public:
  virtual ~ExploredRun() = default;
  virtual sim::World& world() = 0;
  /// WorldOptions::seed the run was built with (artifact metadata).
  virtual std::uint64_t seed() const { return 0; }
  /// Digest of all verification-relevant state beyond what the World
  /// itself fingerprints: register contents, object internals, history
  /// fates. Called after every step when state pruning is on.
  virtual std::uint64_t fingerprint() const = 0;
  /// End-of-run safety verdict: empty = clean, otherwise a one-line
  /// description of the violation (e.g. the linearizability witness).
  virtual std::string check() = 0;
  /// Free-text detail for the counterexample artifact (history dump).
  virtual std::string describe() const { return {}; }
};

using RunFactory =
    std::function<std::unique_ptr<ExploredRun>(std::unique_ptr<sim::Schedule>)>;

struct ExplorerOptions {
  /// Name stamped on counterexample artifacts.
  std::string name = "explore";
  /// DFS depth bound (steps per run).
  std::size_t max_depth = 48;
  /// Max context switches away from a runnable process; < 0 = unbounded.
  int max_preemptions = -1;
  /// Budget on complete runs (DFS leaves) before giving up.
  std::uint64_t max_runs = 1u << 20;
  bool sleep_sets = true;
  bool state_pruning = true;
};

struct ExploreStats {
  std::uint64_t runs = 0;             ///< complete runs (DFS leaves)
  std::uint64_t steps = 0;            ///< world steps incl. replays
  std::uint64_t sleep_skips = 0;      ///< choices cut by sleep sets
  std::uint64_t preemption_skips = 0; ///< choices cut by the bound
  std::uint64_t state_prunes = 0;     ///< nodes cut by fingerprint reuse
  std::uint64_t distinct_states = 0;  ///< fingerprints seen
  bool run_budget_exhausted = false;  ///< stopped by max_runs, not coverage

  std::string summary() const;
};

struct ExploreResult {
  bool violation_found = false;
  CounterexampleArtifact artifact;  ///< valid iff violation_found
  ExploreStats stats;

  /// True iff the bounded space was fully explored and came back clean.
  bool clean() const {
    return !violation_found && !stats.run_budget_exhausted;
  }
  std::string summary() const;
};

class Explorer {
 public:
  explicit Explorer(RunFactory factory, ExplorerOptions options = {});

  ExploreResult explore();

 private:
  void minimize_artifact(CounterexampleArtifact& artifact,
                         ExploreStats& stats);

  RunFactory factory_;
  ExplorerOptions options_;
};

}  // namespace tbwf::verify
