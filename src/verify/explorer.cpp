#include "verify/explorer.hpp"

#include <array>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace tbwf::verify {

namespace {

/// The explorer's end of the Schedule seam: each World::step consumes
/// the single pid the explorer primed.
class ControlledSchedule final : public sim::Schedule {
 public:
  sim::Pid next(const sim::WorldView&) override { return next_; }
  void set(sim::Pid p) { next_ = p; }

 private:
  sim::Pid next_ = sim::kNoPid;
};

/// The register accesses of one step. A step completes at most one
/// pending operation and opens at most one new one, so two slots hold
/// every step's accesses and a copy never allocates.
struct Accesses {
  std::array<sim::StepAccess, 2> slot{};
  std::uint8_t size = 0;

  const sim::StepAccess* begin() const { return slot.data(); }
  const sim::StepAccess* end() const { return slot.data() + size; }
};

Accesses last_accesses(const sim::World& world) {
  const std::vector<sim::StepAccess>& touched = world.last_step_accesses();
  TBWF_ASSERT(touched.size() <= 2, "a step made more than two accesses");
  Accesses out;
  for (const sim::StepAccess& a : touched) out.slot[out.size++] = a;
  return out;
}

/// Two steps conflict iff they touch the same register, at least one
/// writes, and neither access is inert (atomic invocation halves).
bool steps_conflict(const Accesses& a, const Accesses& b) {
  for (const sim::StepAccess& x : a) {
    if (x.reg == sim::kInvalidReg || x.inert) continue;
    for (const sim::StepAccess& y : b) {
      if (y.reg == sim::kInvalidReg || y.inert) continue;
      if (x.reg == y.reg && (x.write || y.write)) return true;
    }
  }
  return false;
}

/// Sleep sets and visit records hold pids as bits of one word.
using PidMask = std::uint64_t;

PidMask bit(sim::Pid p) { return PidMask{1} << p; }

/// One enabled pid of a node and, once explored, the accesses of the
/// step it took there.
struct Choice {
  sim::Pid pid = sim::kNoPid;
  bool explored = false;
  Accesses accesses;
};

/// A sleeping pid, with the accesses of the step it would take (valid
/// while it sleeps: a process that takes no step cannot change its next
/// action).
struct SleepEntry {
  sim::Pid pid = sim::kNoPid;
  Accesses accesses;
};

struct Node {
  std::vector<Choice> choices;            ///< enabled pids, ascending
  PidMask enabled = 0;                    ///< the pids in `choices`
  std::size_t next_choice = 0;            ///< next choice to try
  std::vector<SleepEntry> sleep;
  PidMask sleeping = 0;                   ///< the pids in `sleep`
  int preemptions = 0;                    ///< along the prefix to here
};

/// The DFS stack. A popped node keeps its vectors' capacity for the
/// next push at its depth, so the search stops allocating nodes once it
/// has reached its deepest path.
class NodeStack {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  Node& operator[](std::size_t i) { return nodes_[i]; }
  Node& back() { return nodes_[size_ - 1]; }
  void pop_back() { --size_; }

  /// A cleared node on top: its enabled pids taken from `world`.
  Node& push(const sim::World& world, int preemptions) {
    if (size_ == nodes_.size()) nodes_.emplace_back();
    Node& node = nodes_[size_++];
    node.choices.clear();
    node.enabled = 0;
    for (sim::Pid p = 0; p < world.n(); ++p) {
      if (!world.runnable(p)) continue;
      node.choices.push_back(Choice{p, false, {}});
      node.enabled |= bit(p);
    }
    node.next_choice = 0;
    node.sleep.clear();
    node.sleeping = 0;
    node.preemptions = preemptions;
    return node;
  }

 private:
  std::vector<Node> nodes_;
  std::size_t size_ = 0;
};

std::uint64_t node_fingerprint(const ExploredRun& run, sim::World& world) {
  std::uint64_t h = run.fingerprint();
  for (sim::Pid p = 0; p < world.n(); ++p) {
    h = util::hash_mix(h, world.process_signature(p));
  }
  return h;
}

/// Advance node.next_choice past sleeping / preemption-barred choices;
/// true iff an untried viable choice remains (at node.next_choice).
bool advance_to_viable(Node& node, sim::Pid prev,
                       const ExplorerOptions& options, ExploreStats& stats) {
  while (node.next_choice < node.choices.size()) {
    const sim::Pid cand = node.choices[node.next_choice].pid;
    if (options.sleep_sets && (node.sleeping & bit(cand)) != 0) {
      ++stats.sleep_skips;
      ++node.next_choice;
      continue;
    }
    const bool preempt = prev != sim::kNoPid && cand != prev &&
                         (node.enabled & bit(prev)) != 0;
    if (options.max_preemptions >= 0 && preempt &&
        node.preemptions + 1 > options.max_preemptions) {
      ++stats.preemption_skips;
      ++node.next_choice;
      continue;
    }
    return true;
  }
  return false;
}

/// One prior expansion of a visited state: how much depth remained and
/// under which sleep set it was explored. Caching sleep-set-restricted
/// expansions by fingerprint alone is unsound (Godefroid): a revisit
/// with FEWER sleepers has more freedom below the same state, and
/// pruning it against a more-restricted earlier visit can hide real
/// interleavings (a dropped-fence queue mutation escaped exactly this
/// way). A revisit may only be pruned against a visit that was at
/// least as deep AND at least as permissive. A sleeping pid's pending
/// accesses are a function of the state, so comparing pid sets is
/// enough under equal fingerprints.
struct VisitEntry {
  std::size_t remaining = 0;
  PidMask sleep = 0;  ///< sleeping pids at expansion
};

/// a subseteq b.
bool sleep_subset(PidMask a, PidMask b) { return (a & ~b) == 0; }

}  // namespace

Explorer::Explorer(RunFactory factory, ExplorerOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {
  TBWF_ASSERT(factory_ != nullptr, "explorer needs a run factory");
}

ExploreResult Explorer::explore() {
  ExploreResult result;
  ExploreStats& stats = result.stats;

  // stack[i] = node after i steps; path[i] = pid taken from stack[i].
  NodeStack stack;
  std::vector<sim::Pid> path;
  // fingerprint -> prior expansions (remaining depth + sleep set each).
  std::unordered_map<std::uint64_t, std::vector<VisitEntry>> visited;

  for (;;) {
    if (stats.runs >= options_.max_runs) {
      stats.run_budget_exhausted = true;
      break;
    }

    auto schedule = std::make_unique<ControlledSchedule>();
    ControlledSchedule* ctl = schedule.get();
    std::unique_ptr<ExploredRun> run = factory_(std::move(schedule));
    sim::World& world = run->world();
    TBWF_ASSERT(world.n() <= 64, "sleep sets hold at most 64 pids");

    // Replay the committed prefix (deterministic: same seed, same pids).
    for (const sim::Pid p : path) {
      ctl->set(p);
      const bool ok = world.step();
      TBWF_ASSERT(ok, "explorer replay step rejected");
      ++stats.steps;
    }

    if (stack.empty()) {
      stack.push(world, 0);
      if (options_.state_pruning) {
        visited[node_fingerprint(*run, world)].push_back(
            VisitEntry{options_.max_depth, 0});
      }
    }

    // Extend first-viable-choice until a leaf.
    while (path.size() < options_.max_depth) {
      const std::size_t depth = stack.size() - 1;
      Node& node = stack[depth];
      const sim::Pid prev = path.empty() ? sim::kNoPid : path.back();
      if (!advance_to_viable(node, prev, options_, stats)) break;

      const std::size_t ci = node.next_choice;
      const sim::Pid p = node.choices[ci].pid;
      const bool preempt = prev != sim::kNoPid && p != prev &&
                           (node.enabled & bit(prev)) != 0;

      ctl->set(p);
      const bool ok = world.step();
      TBWF_ASSERT(ok, "explorer step rejected");
      ++stats.steps;

      const Accesses accesses = last_accesses(world);
      node.choices[ci].explored = true;
      node.choices[ci].accesses = accesses;
      ++node.next_choice;
      path.push_back(p);

      // The push may move the nodes; re-take the parent by index.
      Node& child =
          stack.push(world, node.preemptions + (preempt ? 1 : 0));
      const Node& parent = stack[depth];
      if (options_.sleep_sets) {
        // Inherit sleepers that don't conflict with the step just taken,
        // and put already-explored independent siblings to sleep.
        for (const SleepEntry& e : parent.sleep) {
          if (e.pid != p && !steps_conflict(e.accesses, accesses)) {
            child.sleep.push_back(e);
            child.sleeping |= bit(e.pid);
          }
        }
        for (std::size_t j = 0; j < parent.choices.size(); ++j) {
          const Choice& c = parent.choices[j];
          if (j == ci || !c.explored) continue;
          if (c.pid != p && (child.sleeping & bit(c.pid)) == 0 &&
              !steps_conflict(c.accesses, accesses)) {
            child.sleep.push_back(SleepEntry{c.pid, c.accesses});
            child.sleeping |= bit(c.pid);
          }
        }
      }

      bool pruned = false;
      if (options_.state_pruning) {
        const std::uint64_t fp = node_fingerprint(*run, world);
        const std::size_t remaining = options_.max_depth - path.size();
        const PidMask sleepers = child.sleeping;
        std::vector<VisitEntry>& entries = visited[fp];
        for (const VisitEntry& e : entries) {
          if (e.remaining >= remaining && sleep_subset(e.sleep, sleepers)) {
            pruned = true;
            ++stats.state_prunes;
            break;
          }
        }
        if (!pruned) {
          // This visit will explore at least as much as any entry it
          // dominates; drop those before recording it.
          std::erase_if(entries, [&](const VisitEntry& e) {
            return e.remaining <= remaining && sleep_subset(sleepers, e.sleep);
          });
          entries.push_back(VisitEntry{remaining, sleepers});
        }
      }
      if (pruned) {
        // Treat as an exhausted leaf: the earlier visit explored at
        // least this much depth below the same state.
        child.next_choice = child.choices.size();
        break;
      }
    }

    // One complete run: grade it.
    ++stats.runs;
    const std::string violation = run->check();
    if (!violation.empty()) {
      result.violation_found = true;
      CounterexampleArtifact& art = result.artifact;
      art.title = options_.name;
      art.n = world.n();
      art.world_seed = run->seed();
      art.trace_digest = world.trace().digest();
      art.schedule = path;
      art.violation = violation;
      art.details = run->describe();
      minimize_artifact(art, stats);
      break;
    }

    // Backtrack to the deepest node with an untried viable choice.
    for (;;) {
      if (stack.empty()) break;
      Node& node = stack.back();
      const sim::Pid prev = path.empty() ? sim::kNoPid : path.back();
      if (advance_to_viable(node, prev, options_, stats)) break;
      stack.pop_back();
      if (!path.empty()) path.pop_back();
    }
    if (stack.empty()) break;  // bounded space fully explored
  }

  stats.distinct_states = visited.size();
  return result;
}

void Explorer::minimize_artifact(CounterexampleArtifact& artifact,
                                 ExploreStats& stats) {
  const std::vector<sim::Pid> full = artifact.schedule;
  for (std::size_t len = 1; len <= full.size(); ++len) {
    std::vector<sim::Pid> prefix(full.begin(),
                                 full.begin() + static_cast<std::ptrdiff_t>(len));
    std::unique_ptr<ExploredRun> run =
        factory_(std::make_unique<sim::ScriptedSchedule>(prefix));
    const sim::Step taken = run->world().run(static_cast<sim::Step>(len));
    stats.steps += taken;
    const std::string violation = run->check();
    if (!violation.empty()) {
      artifact.schedule = std::move(prefix);
      artifact.violation = violation;
      artifact.trace_digest = run->world().trace().digest();
      artifact.details = run->describe();
      return;
    }
  }
  // The full schedule violates by construction; reaching here would mean
  // the run is not a deterministic function of its schedule.
  TBWF_ASSERT(false, "counterexample did not replay -- nondeterministic run");
}

std::string ExploreStats::summary() const {
  std::ostringstream out;
  out << "runs=" << runs << " steps=" << steps
      << " distinct_states=" << distinct_states
      << " sleep_skips=" << sleep_skips
      << " preemption_skips=" << preemption_skips
      << " state_prunes=" << state_prunes;
  if (run_budget_exhausted) out << " (run budget exhausted)";
  return out.str();
}

std::string ExploreResult::summary() const {
  std::ostringstream out;
  if (violation_found) {
    out << "VIOLATION after " << stats.runs << " runs: " << artifact.violation
        << "\n  minimized schedule length: " << artifact.schedule.size();
  } else {
    out << (clean() ? "CLEAN (bounded space exhausted)"
                    : "NO VIOLATION (budget exhausted)");
  }
  out << "\n  " << stats.summary();
  return out.str();
}

}  // namespace tbwf::verify
